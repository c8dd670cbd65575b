//! The paper's two running examples, executed exactly as the figures show.

use std::sync::Arc;

use sapphire_core::prelude::*;
use sapphire_core::InitMode;
use sapphire_datagen::{generate, DatasetConfig};

fn pum() -> PredictiveUserModel {
    let graph = generate(DatasetConfig::tiny(42));
    let ep: Arc<dyn Endpoint> = Arc::new(LocalEndpoint::new(
        "dbpedia",
        graph,
        EndpointLimits::warehouse(),
    ));
    PredictiveUserModel::initialize(
        vec![ep],
        Lexicon::dbpedia_default(),
        SapphireConfig {
            processes: 2,
            ..SapphireConfig::default()
        },
        InitMode::Federated,
    )
    .expect("init")
}

/// Figures 2 and 4: "Kennedys" → no answers → "did you mean Kennedy?" →
/// accept → filter the answer table by "john", hide and show a column.
#[test]
fn figure_2_and_4_kennedys_walkthrough() {
    let pum = pum();
    let mut session = Session::new(&pum);
    session.set_row(0, TripleInput::new("?person", "surname", "Kennedys"));
    let result = session.run().expect("run");
    assert!(result.executed);
    assert_eq!(result.answers.total_rows(), 0, "no Kennedys (plural)");

    let alt = result
        .suggestions
        .alternatives
        .iter()
        .find(|a| a.replacement == "Kennedy")
        .expect("Figure 2 suggestion");
    assert!(alt.describe().contains("Did you mean"));
    assert!(
        alt.answer_count() >= 4,
        "anchor Kennedys: JFK, Jackie, RFK, Kathleen"
    );

    let mut table = session.apply_alternative(alt);
    assert_eq!(session.triples[0].object, "Kennedy", "query box updated");

    // Figure 4: keyword filter + ordering on the answer table.
    table.set_filter("john");
    table.sort_by("person", false);
    let filtered = table.view();
    assert!(!filtered.is_empty());
    assert!(filtered.rows.iter().all(|r| r[0]
        .as_ref()
        .unwrap()
        .lexical()
        .to_lowercase()
        .contains("john")));

    // Figure 4: hiding a column drops it from the view; showing it brings
    // the same view back.
    table.hide_column("person");
    assert!(!table.view().vars.iter().any(|v| v == "person"));
    table.show_column("person");
    assert_eq!(table.view(), filtered, "the shown column is back");
}

/// Figures 6 and 7: the structurally naive Kerouac/Viking Press query is
/// relaxed into the author/publisher paths, finding both Viking books and
/// excluding the Grove Press one.
#[test]
fn figure_6_and_7_kerouac_relaxation() {
    let pum = pum();
    let mut session = Session::new(&pum);
    session.set_row(0, TripleInput::new("?book", "writer", "Jack Kerouac"));
    session.set_row(1, TripleInput::new("?book", "publisher", "Viking Press"));
    let result = session.run().expect("run");
    assert_eq!(
        result.answers.total_rows(),
        0,
        "naive structure finds nothing"
    );

    let relaxation = result
        .suggestions
        .relaxations
        .first()
        .expect("Algorithm 3 fires");
    assert!(relaxation.relaxed.complete, "all seed groups connected");
    assert!(
        relaxation.relaxed.queries_used <= 100,
        "within the query budget"
    );

    // The suggested query uses the data's real connecting predicates.
    let predicates: Vec<String> = relaxation
        .relaxed
        .tree
        .iter()
        .map(|(_, p, _)| p.lexical().to_string())
        .collect();
    assert!(
        predicates.iter().any(|p| p.ends_with("author")),
        "{predicates:?}"
    );
    assert!(predicates.iter().any(|p| p.ends_with("publisher")));
    assert!(
        !predicates.iter().any(|p| p.ends_with("#type")),
        "no vacuous paths through class vertices"
    );

    // Both Viking Press books, and only those, in the prefetched answers.
    let table = session.apply_relaxation(relaxation);
    let all: Vec<String> = table
        .solutions()
        .rows
        .iter()
        .flatten()
        .flatten()
        .map(|t| t.lexical().to_string())
        .collect();
    assert!(all.iter().any(|v| v.ends_with("On_The_Road")));
    assert!(all.iter().any(|v| v.ends_with("Door_Wide_Open")));
    assert!(
        !all.iter().any(|v| v.ends_with("Doctor_Sax")),
        "Grove Press book excluded"
    );
}

/// The paper's introduction example, as a direct SPARQL query: counting
/// scientists whose alma mater has an affiliation. Our synthetic data has no
/// Ivy League, so the analogue counts scientists by alma mater existence.
#[test]
fn intro_style_aggregate_query() {
    let pum = pum();
    let out = pum
        .run_str(
            "SELECT DISTINCT count (?uri) WHERE { ?uri rdf:type dbo:Scientist. ?uri dbo:almaMater ?university. }",
        )
        .expect("parses — including the paper's bare lowercase count()");
    assert!(out.executed);
    let n: i64 = out.answers.sole_value().unwrap().lexical().parse().unwrap();
    assert!(n > 0, "some scientists have alma maters");
}

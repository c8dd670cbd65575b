//! A shard's Run reply carries its model's ranked rewrite candidates — the
//! list the model's own output leaves empty — unchanged through the wire
//! codec and through a loopback `WireServer` / `WireClient`.

use std::sync::Arc;

use sapphire_core::prelude::*;
use sapphire_core::qsm::TermAlternative;
use sapphire_core::InitMode;
use sapphire_server::{SapphireServer, ServerConfig, ShardService, WireRequest};
use sapphire_wire::codec::{decode_reply, encode_reply, LoadHeader};
use sapphire_wire::{WireClient, WireClientConfig, WireServer, WireServerConfig};

/// Debug renderings, one per candidate: `TermAlternative` has no `Eq`.
fn rendered(candidates: &[TermAlternative]) -> Vec<String> {
    candidates.iter().map(|c| format!("{c:?}")).collect()
}

#[test]
fn a_run_reply_keeps_its_candidates_across_the_wire() {
    let graph = sapphire_sparql::turtle::parse(
        r#"res:JFK a dbo:Person ; dbo:surname "Kennedy"@en ; dbo:name "John F. Kennedy"@en ."#,
    )
    .unwrap();
    let ep: Arc<dyn Endpoint> = Arc::new(LocalEndpoint::new(
        "dbpedia",
        graph,
        EndpointLimits::warehouse(),
    ));
    let pum = PredictiveUserModel::initialize(
        vec![ep],
        Lexicon::dbpedia_default(),
        SapphireConfig::for_tests(),
        InitMode::Federated,
    )
    .unwrap();
    let server = Arc::new(SapphireServer::new(
        Arc::new(pum),
        ServerConfig::for_tests(),
    ));
    let query =
        sapphire_sparql::parse_select(r#"SELECT ?p WHERE { ?p dbo:surname "Kennedys"@en }"#)
            .unwrap();
    let expected = rendered(&server.model().qsm().candidates(&query));
    assert!(!expected.is_empty(), "a misspelled literal has candidates");

    let reply = server.call(&WireRequest::Run {
        tenant: "edge".into(),
        query: query.clone(),
        tier: 0,
        budget: None,
    });
    let (_, decoded) = decode_reply(&encode_reply(LoadHeader::default(), &reply)).unwrap();
    assert_eq!(format!("{decoded:?}"), format!("{reply:?}"), "round trip");
    let payload = decoded.unwrap().into_run().unwrap();
    assert_eq!(rendered(&payload.suggestions.candidates), expected);

    let host =
        WireServer::serve(server.clone(), "127.0.0.1:0", WireServerConfig::default()).unwrap();
    let client = WireClient::connect(host.local_addr(), WireClientConfig::default()).unwrap();
    let over_wire = client.run_select_tiered("edge", &query, 0, None).unwrap();
    assert_eq!(
        rendered(&over_wire.suggestions.candidates),
        expected,
        "over the wire"
    );
    host.shutdown();
}

//! A raw query's failure crosses the shard boundary with the type and the
//! message the server gave it: a shard's `execute_raw` answers exactly what
//! `from_federation` makes of its model's own federation error, in process
//! and through a loopback `WireServer` / `WireClient`.

use std::sync::Arc;

use sapphire_core::prelude::*;
use sapphire_core::InitMode;
use sapphire_server::error::from_federation;
use sapphire_server::{SapphireServer, ServerConfig, ShardService};
use sapphire_wire::{WireClient, WireClientConfig, WireServer, WireServerConfig};

#[test]
fn raw_query_errors_keep_their_type_across_the_shard_boundary() {
    let graph =
        sapphire_sparql::turtle::parse(r#"res:JFK a dbo:Person ; dbo:surname "Kennedy"@en ."#)
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
    // No triple pattern binds `?x`: the evaluator refuses the query as
    // unsupported — a failure of the query, not back-pressure.
    let query = sapphire_sparql::parse_query(
        r#"SELECT ?p WHERE { ?p dbo:surname "Kennedy"@en VALUES ?x { res:JFK } }"#,
    )
    .unwrap();
    let expected = from_federation(
        server
            .model()
            .federation()
            .execute_parsed(&query)
            .unwrap_err(),
    );
    assert!(!expected.is_rejection(), "{expected:?}");

    let in_process = server.execute_raw("edge", &query).unwrap_err();
    assert_eq!(in_process, expected, "in process");

    let host =
        WireServer::serve(server.clone(), "127.0.0.1:0", WireServerConfig::default()).unwrap();
    let client = WireClient::connect(host.local_addr(), WireClientConfig::default()).unwrap();
    let over_wire = client.execute_raw("edge", &query).unwrap_err();
    assert_eq!(over_wire, expected, "over the wire");
    host.shutdown();
}

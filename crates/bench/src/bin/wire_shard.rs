//! One shard replica as a standalone OS process, serving its slice over a
//! [`WireServer`] on an ephemeral loopback port.
//!
//! This is the worker half of `serve_load --cluster --wire --processes`:
//! the parent spawns one `wire_shard` per replica. Each either **loads its
//! shard slice from a snapshot** (`--snapshot <path>`, one sequential read
//! of the columnar [`sapphire_rdf::snapshot`] format) or **regenerates** the
//! (deterministic, fixed-seed) dataset and re-partitions it locally with the
//! same subject-hash partitioner the in-process `Cluster::build` uses,
//! keeping only its own shard's slice. Either way it starts its replica
//! through `sapphire_cluster::topology::start_shard`, as the in-process
//! cluster does, and stands that [`SapphireServer`] behind a wire
//! listener; the two bring-up paths produce byte-identical shard graphs,
//! which the parent's reference router verifies.
//!
//! Bring-up handshake: one line on stdout —
//!
//! ```text
//! WIRE_READY 127.0.0.1:PORT bringup=snapshot|generate data_us=12345
//! ```
//!
//! — where `bringup` says how the shard got its data and `data_us` is the
//! wall time of that phase (snapshot read+decode, or generate+partition).
//! The process then serves until its **stdin reaches EOF** (the parent drops
//! its pipe end), which triggers a graceful drain. Everything else (init
//! progress) goes to stderr so the handshake line stays machine-parseable.
//!
//! Usage: `wire_shard --scale tiny --shards 2 --shard 0 --replica 1
//! [--snapshot path/to/tiny-s0of2.snap]`
//!
//! A `--snapshot` that fails to load (missing, truncated, corrupt, wrong
//! version) is reported on stderr and falls back to generate — a stale
//! snapshot directory degrades bring-up speed, never availability.
//!
//! [`WireServer`]: sapphire_wire::WireServer
//! [`SapphireServer`]: sapphire_server::SapphireServer

use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Instant;

use sapphire_bench::args::Args;
use sapphire_bench::{dataset_for, experiment_config, serving_posture};
use sapphire_cluster::topology::start_shard;
use sapphire_datagen::generate;
use sapphire_rdf::{snapshot, Graph, Partitioner};
use sapphire_server::ShardService;
use sapphire_text::Lexicon;
use sapphire_wire::{WireServer, WireServerConfig};

/// `(scale, shards, shard, replica, snapshot path)` from the command line.
fn parse(mut args: Args) -> Result<(String, usize, usize, usize, Option<String>), String> {
    let parsed = (
        args.string("--scale")?
            .unwrap_or_else(|| "tiny".to_string()),
        args.number("--shards", 2)?,
        args.number("--shard", 0)?,
        args.number("--replica", 0)?,
        args.string("--snapshot")?,
    );
    args.finish()?;
    Ok(parsed)
}

fn main() {
    let (scale, shards, shard, replica, snapshot_path) =
        parse(Args::from_env()).unwrap_or_else(|e| {
            eprintln!("wire_shard: {e}");
            std::process::exit(2);
        });
    assert!(shards >= 1, "--shards must be at least 1");
    assert!(
        shard < shards,
        "--shard {shard} out of range for {shards} shards"
    );

    let data_clock = Instant::now();
    let loaded: Option<Graph> =
        snapshot_path
            .as_ref()
            .and_then(|path| match snapshot::load(std::path::Path::new(path)) {
                Ok(g) => {
                    eprintln!(
                        "(wire_shard s{shard}r{replica}: loaded {} triples from {path})",
                        g.len()
                    );
                    Some(g)
                }
                Err(e) => {
                    eprintln!(
                        "(wire_shard s{shard}r{replica}: snapshot {path} unusable ({e}); \
                     falling back to generate)"
                    );
                    None
                }
            });
    let bringup = if loaded.is_some() {
        "snapshot"
    } else {
        "generate"
    };
    let shard_graph = loaded.unwrap_or_else(|| {
        eprintln!("(wire_shard s{shard}r{replica}: generating dataset…)");
        let graph = generate(dataset_for(&scale));
        Partitioner::new(shards)
            .split(&graph)
            .shards
            .into_iter()
            .nth(shard)
            .expect("partitioner yields every shard")
    });
    let data_us = data_clock.elapsed().as_micros();

    // The same start-up and serving posture as the in-process cluster
    // (and the parent's reference router), so process-mode merges stay
    // byte-identical to the in-process ones.
    let server = start_shard(
        "edge",
        shard,
        shard_graph,
        replica..replica + 1,
        &Lexicon::dbpedia_default(),
        &experiment_config(),
        &serving_posture(),
    )
    .expect("shard model initialization")
    .remove(0);
    let wire = WireServer::serve(
        server as Arc<dyn ShardService>,
        "127.0.0.1:0",
        WireServerConfig::default(),
    )
    .expect("bind loopback wire listener");

    // The handshake line the parent parses; stdout is block-buffered when
    // piped, so flush explicitly.
    println!(
        "WIRE_READY {} bringup={bringup} data_us={data_us}",
        wire.local_addr()
    );
    std::io::stdout().flush().ok();

    // Serve until the parent closes our stdin.
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    eprintln!("(wire_shard s{shard}r{replica}: stdin closed, draining)");
    wire.shutdown();
}

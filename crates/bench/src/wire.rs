//! Wire-mode load harness: `serve_load --cluster --wire` and the CI
//! replica-loss smoke gate.
//!
//! Runs the same Appendix-B closed-loop workload as [`crate::cluster`],
//! but with a **real process boundary** on the edge↔shard hop: every
//! replica is hosted behind a [`WireServer`] on a loopback socket and the
//! [`ClusterRouter`] talks to it through a [`WireClient`] — serialization,
//! framing, pipelined connections, and transport failures all on the hot
//! path. Two extra switches:
//!
//! * `--processes` — shards run as separate **OS processes** (the
//!   `wire_shard` binary, found next to the running executable), brought
//!   up with a `WIRE_READY {addr}` stdout handshake and torn down by
//!   closing their stdin. Without it, the wire servers run as threads in
//!   this process — same sockets, same codec, cheaper bring-up.
//! * `--kill-replica` (the smoke default) — one replica is crashed
//!   mid-run: its live connections are shot mid-stream and subsequent
//!   dials are refused. The gate is that the router's typed-retry/failover
//!   machinery absorbs the loss: **zero** requests surface an error.
//!
//! Correctness is checked against an **in-process oracle**: a plain
//! `ClusterRouter` over the same partitioning serves a sample of the
//! workload, and any byte-level divergence (answers, suggestion lists,
//! completions) counts in `summary.merge_mismatches` (the CI gate requires
//! zero).

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use sapphire_cluster::{Cluster, ClusterConfig, ClusterRouter};
use sapphire_datagen::generate;
use sapphire_datagen::workload::appendix_b;
use sapphire_obs::MetricsHub;
use sapphire_rdf::{snapshot, Partitioner};
use sapphire_server::{ServerConfig, ShardService};
use sapphire_sparql::SelectQuery;
use sapphire_text::Lexicon;
use sapphire_wire::{WireClient, WireClientConfig, WireServer, WireServerConfig};

use crate::cluster::{flatten, replay_mismatches, workload_queries};
use crate::serve::{closed_loop_sections, ClassStats};
use crate::{dataset_for, experiment_config};

/// Everything the wire harness can be asked to do.
#[derive(Debug, Clone)]
pub struct WireLoadOptions {
    /// Closed-loop simulated users.
    pub users: usize,
    /// Times each user replays the whole Appendix-B question list.
    pub rounds: usize,
    /// Dataset scale (`tiny`/`small`/`medium`).
    pub scale: String,
    /// Data shards.
    pub shards: usize,
    /// Replicas per shard.
    pub replicas: usize,
    /// Questions (and QCM terms) replayed against the in-process oracle
    /// (`0` skips the check).
    pub determinism_sample: usize,
    /// Host each replica in a separate OS process (the `wire_shard`
    /// binary) instead of a thread in this one.
    pub processes: bool,
    /// Crash one replica mid-run (kill its connections, refuse redials)
    /// and demand zero surviving errors.
    pub kill_replica: bool,
    /// Process mode only: write per-shard snapshots first and bring the
    /// children up from them (`wire_shard --snapshot`) instead of letting
    /// each child regenerate its slice. The parent still generates and
    /// partitions (it needs the oracle and the snapshot bytes), which is
    /// exactly the per-child cost the snapshot path avoids — the report's
    /// `bringup` section holds both sides of that comparison.
    pub snapshot: bool,
}

impl Default for WireLoadOptions {
    fn default() -> Self {
        WireLoadOptions {
            users: 8,
            rounds: 2,
            scale: "tiny".to_string(),
            shards: 2,
            replicas: 2,
            determinism_sample: 8,
            processes: false,
            kill_replica: false,
            snapshot: false,
        }
    }
}

impl WireLoadOptions {
    /// The CI smoke posture: 2×2 on loopback sockets, one replica killed
    /// mid-run, oracle check on. Small enough to ride inside `serve_check`.
    pub fn smoke() -> Self {
        WireLoadOptions {
            users: 4,
            rounds: 2,
            kill_replica: true,
            ..WireLoadOptions::default()
        }
    }

    /// The CI snapshot-gate posture: real shard processes brought up from
    /// freshly written snapshots, oracle check on, no kill drill (the gate
    /// is bring-up, not failover).
    pub fn snapshot_smoke() -> Self {
        WireLoadOptions {
            users: 4,
            rounds: 1,
            processes: true,
            snapshot: true,
            ..WireLoadOptions::default()
        }
    }
}

/// How one `wire_shard` child got its data, from its `WIRE_READY` handshake.
#[derive(Debug, Clone)]
struct ChildBringup {
    shard: usize,
    replica: usize,
    /// `"snapshot"` or `"generate"`.
    mode: String,
    /// Wall time of the child's data phase (snapshot load, or
    /// generate+partition), microseconds.
    data_us: u64,
}

/// One hosted replica: either a wire server thread in this process or a
/// `wire_shard` child process.
enum ReplicaHost {
    Thread(WireServer),
    Process(Child),
}

impl ReplicaHost {
    /// Simulated crash: live connections die mid-stream, later dials are
    /// refused — what a killed replica process looks like from the edge.
    fn kill(self) {
        match self {
            ReplicaHost::Thread(server) => {
                server.kill_connections();
                server.shutdown();
            }
            ReplicaHost::Process(mut child) => {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }

    /// Graceful teardown at the end of the run.
    fn stop(self) {
        match self {
            ReplicaHost::Thread(server) => server.shutdown(),
            ReplicaHost::Process(mut child) => {
                // Closing the child's stdin is the shutdown signal; give it
                // a moment, then make sure it is gone.
                drop(child.stdin.take());
                std::thread::sleep(std::time::Duration::from_millis(100));
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

/// Host every replica of the in-process cluster behind a wire server
/// thread on an ephemeral loopback port.
/// Per-shard replica hosts plus the socket addresses they listen on.
type ShardHosts = (Vec<Vec<ReplicaHost>>, Vec<Vec<SocketAddr>>);

fn host_threads(cluster: &Cluster) -> ShardHosts {
    cluster
        .shards()
        .iter()
        .map(|replicas| {
            replicas
                .iter()
                .map(|r| {
                    let server = WireServer::serve(
                        r.clone() as Arc<dyn ShardService>,
                        "127.0.0.1:0",
                        WireServerConfig::default(),
                    )
                    .expect("bind loopback wire server");
                    let addr = server.local_addr();
                    (ReplicaHost::Thread(server), addr)
                })
                .unzip()
        })
        .unzip()
}

/// Parse a `WIRE_READY addr [bringup=… data_us=…]` handshake line. The
/// address is positional; the remaining tokens are `key=value` pairs so the
/// handshake can grow without breaking older parsers (whitespace-split, not
/// parse-the-whole-remainder).
fn parse_handshake(line: &str) -> Option<(SocketAddr, String, u64)> {
    let mut tokens = line.split_whitespace();
    if tokens.next() != Some("WIRE_READY") {
        return None;
    }
    let addr: SocketAddr = tokens.next()?.parse().ok()?;
    let mut mode = "generate".to_string();
    let mut data_us = 0u64;
    for token in tokens {
        if let Some(v) = token.strip_prefix("bringup=") {
            mode = v.to_string();
        } else if let Some(v) = token.strip_prefix("data_us=") {
            data_us = v.parse().ok()?;
        }
    }
    Some((addr, mode, data_us))
}

/// Spawn one `wire_shard` child per replica and collect the `WIRE_READY`
/// handshakes (address + bring-up telemetry). The binary is expected next
/// to the running executable (both are `sapphire-bench` bins, so a normal
/// build puts them together). With `snapshot_dir` set, each child is told
/// to load its shard's snapshot from there instead of regenerating.
fn host_processes(
    opts: &WireLoadOptions,
    snapshot_dir: Option<&Path>,
) -> std::io::Result<(ShardHosts, Vec<ChildBringup>)> {
    let exe = std::env::current_exe()?;
    let bin = exe
        .parent()
        .ok_or_else(|| std::io::Error::other("current_exe has no parent dir"))?
        .join(format!("wire_shard{}", std::env::consts::EXE_SUFFIX));
    if !bin.exists() {
        return Err(std::io::Error::other(format!(
            "{} not found (build it with `cargo build --release -p sapphire-bench --bin wire_shard`)",
            bin.display()
        )));
    }
    let mut hosts = Vec::with_capacity(opts.shards);
    let mut addrs = Vec::with_capacity(opts.shards);
    let mut bringups = Vec::with_capacity(opts.shards * opts.replicas);
    for shard in 0..opts.shards {
        let mut shard_hosts = Vec::with_capacity(opts.replicas);
        let mut shard_addrs = Vec::with_capacity(opts.replicas);
        for replica in 0..opts.replicas {
            let mut command = Command::new(&bin);
            command.args([
                "--scale",
                &opts.scale,
                "--shards",
                &opts.shards.to_string(),
                "--shard",
                &shard.to_string(),
                "--replica",
                &replica.to_string(),
            ]);
            if let Some(dir) = snapshot_dir {
                let path = dir.join(snapshot::shard_file_name(&opts.scale, shard, opts.shards));
                command.args(["--snapshot".as_ref(), path.as_os_str()]);
            }
            let mut child = command
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .spawn()?;
            let stdout = child.stdout.take().expect("piped child stdout");
            let mut line = String::new();
            BufReader::new(stdout).read_line(&mut line)?;
            let (addr, mode, data_us) = parse_handshake(&line).ok_or_else(|| {
                std::io::Error::other(format!(
                    "wire_shard s{shard}r{replica} bad handshake: {line:?}"
                ))
            })?;
            bringups.push(ChildBringup {
                shard,
                replica,
                mode,
                data_us,
            });
            shard_hosts.push(ReplicaHost::Process(child));
            shard_addrs.push(addr);
        }
        hosts.push(shard_hosts);
        addrs.push(shard_addrs);
    }
    Ok(((hosts, addrs), bringups))
}

/// Run the wire-mode workload and return the report.
pub fn run(opts: &WireLoadOptions) -> MetricsHub {
    assert!(
        !opts.snapshot || opts.processes,
        "--snapshot needs --processes: in thread mode there is no separate \
         bring-up to snapshot"
    );
    let dataset = dataset_for(&opts.scale);
    eprintln!(
        "(generating dataset + initializing {} shard models x {} replicas{}…)",
        opts.shards,
        opts.replicas,
        if opts.processes {
            " + one wire_shard process each"
        } else {
            ""
        }
    );
    // Generate and partition with explicit timing: in snapshot mode this
    // parent-side cost is exactly what every child would have paid to
    // regenerate its slice, i.e. the reference the snapshot loads are
    // gated against.
    let generate_clock = Instant::now();
    let graph = generate(dataset);
    let parent_generate_us = generate_clock.elapsed().as_micros() as u64;
    let triple_count = graph.len();
    let partition_clock = Instant::now();
    let partition = Partitioner::new(opts.shards).split(&graph);
    let parent_partition_us = partition_clock.elapsed().as_micros() as u64;

    // In snapshot mode, persist the shard slices before standing anything
    // up — the children's only data source.
    let snapshot_dir: Option<PathBuf> = opts
        .snapshot
        .then(|| std::env::temp_dir().join(format!("sapphire-wire-snap-{}", std::process::id())));
    let mut snapshot_write_us = 0u64;
    if let Some(dir) = &snapshot_dir {
        std::fs::create_dir_all(dir).expect("create snapshot dir");
        let write_clock = Instant::now();
        for (i, shard_graph) in partition.shards.iter().enumerate() {
            let path = dir.join(snapshot::shard_file_name(&opts.scale, i, opts.shards));
            snapshot::write(shard_graph, &path).expect("write shard snapshot");
        }
        snapshot_write_us = write_clock.elapsed().as_micros() as u64;
        eprintln!(
            "(wrote {} shard snapshots to {} in {snapshot_write_us}µs)",
            opts.shards,
            dir.display()
        );
    }

    // Same serving posture as the in-process cluster harness — and, in
    // process mode, the same one `wire_shard` rebuilds, so the oracle and
    // the children serve identical bytes.
    let default_in_flight = ServerConfig::default().max_in_flight.max(8);
    let server_config = ServerConfig {
        max_in_flight: default_in_flight,
        max_queue_depth: default_in_flight * 4,
        queue_wait: std::time::Duration::from_millis(1_000),
        ..ServerConfig::default()
    };
    let cluster = Cluster::build_from_shards(
        "edge",
        partition.shards,
        partition.schema_triples,
        partition.data_triples,
        opts.replicas,
        &Lexicon::dbpedia_default(),
        &experiment_config(),
        &server_config,
    )
    .expect("shard initialization");

    // Bring up the wire tier and dial every replica.
    let ((mut hosts, addrs), child_bringups) = if opts.processes {
        host_processes(opts, snapshot_dir.as_deref()).expect("wire_shard bring-up")
    } else {
        (host_threads(&cluster), Vec::new())
    };
    let clients: Vec<Vec<Arc<WireClient>>> = addrs
        .iter()
        .map(|shard| {
            shard
                .iter()
                .map(|&addr| {
                    Arc::new(
                        WireClient::connect(addr, WireClientConfig::default())
                            .expect("handshake with wire replica"),
                    )
                })
                .collect()
        })
        .collect();
    let shard_services: Vec<Vec<Arc<dyn ShardService>>> = clients
        .iter()
        .map(|s| {
            s.iter()
                .map(|c| c.clone() as Arc<dyn ShardService>)
                .collect()
        })
        .collect();
    let router = Arc::new(ClusterRouter::over(
        shard_services,
        ClusterConfig::default(),
    ));
    // The in-process oracle: a plain router straight over the replica
    // servers, no sockets anywhere.
    let oracle = ClusterRouter::new(
        Cluster::from_replicas(cluster.shards().to_vec()),
        ClusterConfig::default(),
    );

    // Build each question's query once, from the shard-local models.
    let models: Vec<_> = (0..cluster.shard_count())
        .map(|s| cluster.replicas(s)[0].model().clone())
        .collect();
    let questions = appendix_b();
    let queries: Vec<SelectQuery> = workload_queries(&models, &questions);

    // The kill drill: when half the QSM runs have completed, crash the
    // *first* replica of shard 0 — the one load-order ties favor, so it is
    // carrying primary traffic when it dies (its siblings must absorb the
    // rest).
    let victim_replica = 0;
    let victim: Arc<Mutex<Option<ReplicaHost>>> = Arc::new(Mutex::new(if opts.kill_replica {
        assert!(
            opts.replicas >= 2,
            "--kill-replica needs at least 2 replicas per shard"
        );
        Some(hosts[0].remove(victim_replica))
    } else {
        None
    }));
    let total_runs = opts.users * opts.rounds * questions.len();
    let kill_at = (total_runs / 2).max(1);
    let runs_done = Arc::new(AtomicUsize::new(0));

    eprintln!(
        "(driving {} users x {} rounds over {} questions against {} shards via {}{}…)",
        opts.users,
        opts.rounds,
        questions.len(),
        opts.shards,
        if opts.processes {
            "shard processes"
        } else {
            "loopback sockets"
        },
        if opts.kill_replica {
            format!(", killing shard 0 replica {victim_replica} mid-run")
        } else {
            String::new()
        }
    );
    let started = Instant::now();
    let (mut qcm, mut qsm) = (ClassStats::default(), ClassStats::default());
    let mut surviving_errors = 0u64;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for user in 0..opts.users {
            let router = router.clone();
            let questions = &questions;
            let queries = &queries;
            let rounds = opts.rounds;
            let victim = victim.clone();
            let runs_done = runs_done.clone();
            handles.push(scope.spawn(move || {
                let tenant = format!("user-{user}");
                let mut qcm = ClassStats::default();
                let mut qsm = ClassStats::default();
                let mut errors = 0u64;
                for round in 0..rounds {
                    for qi in 0..questions.len() {
                        let idx = (qi + user + round) % questions.len();
                        for input in &questions[idx].script.rows {
                            let keyword = input.object.trim_start_matches('?');
                            for end in 1..=keyword.chars().count().min(6) {
                                let prefix: String = keyword.chars().take(end).collect();
                                let t = Instant::now();
                                let r = flatten(router.complete(&tenant, &prefix).map(|_| ()));
                                errors += u64::from(r.is_err());
                                qcm.record(t, &r);
                            }
                        }
                        let t = Instant::now();
                        let r = flatten(router.run(&tenant, &queries[idx]).map(|_| ()));
                        errors += u64::from(r.is_err());
                        qsm.record(t, &r);
                        if runs_done.fetch_add(1, Ordering::SeqCst) + 1 == kill_at {
                            if let Some(v) = victim.lock().unwrap().take() {
                                eprintln!("(crashing one replica after {kill_at} runs…)");
                                v.kill();
                            }
                        }
                    }
                }
                (qcm, qsm, errors)
            }));
        }
        for h in handles {
            let (c, s, e) = h.join().expect("no worker panics");
            qcm.merge(c);
            qsm.merge(s);
            surviving_errors += e;
        }
    });
    let wall = started.elapsed();

    // The dead replica must be provably dead: a direct probe on its client
    // (bypassing the router's failover) has to fail typed — and bump the
    // transport error counters the report surfaces.
    let replica_killed = opts.kill_replica && victim.lock().unwrap().is_none();
    let dead_probe_failed = if replica_killed {
        clients[0][victim_replica]
            .complete_top("probe", "a", 1)
            .is_err()
    } else {
        false
    };

    // Oracle check: the socket path must reproduce the in-process bytes —
    // answers, alternative lists, and completions.
    let merge_mismatches = replay_mismatches(
        &router,
        &oracle,
        &queries,
        &questions,
        opts.determinism_sample,
    );

    let mut hub = MetricsHub::new();
    hub.section("summary").field("benchmark", "serve_wire");
    hub.section("config")
        .field("users", opts.users)
        .field("rounds", opts.rounds)
        .field("scale", opts.scale.as_str())
        .field("shards", opts.shards)
        .field("replicas", opts.replicas)
        .field("processes", u64::from(opts.processes))
        .field("kill_replica", u64::from(opts.kill_replica))
        .field("snapshot", u64::from(opts.snapshot))
        .field("triples", triple_count);
    closed_loop_sections(&mut hub, wall, &qcm, &qsm);
    hub.section("summary")
        .field("rejected_total", surviving_errors)
        .field("merge_mismatches", merge_mismatches);
    // Routing and transport counters (`wire_connects`, `wire_io_errors`, …):
    // the router's own export.
    hub.merge(router.export_metrics());
    hub.section("kill_drill")
        .field("replica_killed", u64::from(replica_killed))
        .field("dead_probe_failed", u64::from(dead_probe_failed));
    // How every tier got its data and what it cost.
    let snapshot_loads = child_bringups
        .iter()
        .filter(|c| c.mode == "snapshot")
        .count();
    let bringup = hub.section("bringup");
    bringup
        .field(
            "mode",
            match (opts.processes, opts.snapshot) {
                (false, _) => "threads",
                (true, false) => "generate",
                (true, true) => "snapshot",
            },
        )
        .field("parent_generate_us", parent_generate_us)
        .field("parent_partition_us", parent_partition_us)
        .field("snapshot_write_us", snapshot_write_us)
        .field("snapshot_loads", snapshot_loads)
        .field("generate_fallbacks", child_bringups.len() - snapshot_loads)
        .field(
            "max_child_data_us",
            child_bringups.iter().map(|c| c.data_us).max().unwrap_or(0),
        );
    for c in &child_bringups {
        bringup
            .field(&format!("s{}r{}_mode", c.shard, c.replica), c.mode.as_str())
            .field(&format!("s{}r{}_data_us", c.shard, c.replica), c.data_us);
    }

    // Graceful teardown of everything still alive.
    for shard_hosts in hosts.drain(..) {
        for host in shard_hosts {
            host.stop();
        }
    }
    if let Some(dir) = &snapshot_dir {
        std::fs::remove_dir_all(dir).ok();
    }
    hub
}

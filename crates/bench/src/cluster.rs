//! Cluster-mode load harness: `serve_load --cluster [--wire [--processes
//! [--snapshot]] [--kill-replica]]` and the cluster, wire and snapshot
//! gates of `serve_check`.
//!
//! Drives the same Appendix-B closed-loop workload as [`crate::serve`], but
//! against a [`ClusterRouter`] over a sharded, replicated set of shard
//! servers — the scatter-gather edge, load-aware routing, typed retry and
//! the deterministic merges all on the hot path. What sits under the router
//! is the one thing [`Transport`] chooses:
//!
//! * in-process replicas, called directly;
//! * loopback sockets: every replica behind a [`WireServer`] thread in this
//!   process, the router talking to it through a [`WireClient`] —
//!   serialization, framing, pipelined connections and transport failures
//!   on the hot path;
//! * shard processes: every replica a `wire_shard` OS process (found next
//!   to the running executable), up after a `WIRE_READY` stdout handshake
//!   and torn down by closing its stdin — regenerating its slice, or
//!   loading it from a snapshot this run writes first.
//!
//! Whatever the transport, a run is one sequence: timed generate and
//! partition (then the snapshot write), one in-process [`Cluster`] over the
//! slices, the closed loop, a replay check, one report. The optional kill
//! drill (wire transports) crashes the first replica of shard 0 when half
//! the runs are done: its live connections die mid-stream and later dials
//! are refused, and the router's retry and failover must absorb it.
//!
//! `summary.rejected_total` counts every error a request surfaced, typed or
//! not. The replay check runs a sample of the workload through the router
//! and through a reference router with cold edge caches straight over the
//! in-process replicas; any byte-level divergence (answers, suggestion
//! lists, completions) counts in `summary.merge_mismatches`.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use sapphire_cluster::{Cluster, ClusterConfig, ClusterError, ClusterRouter};
use sapphire_core::session::{Modifiers, Session, TripleInput};
use sapphire_core::PredictiveUserModel;
use sapphire_datagen::generate;
use sapphire_datagen::workload::{appendix_b, Question};
use sapphire_obs::MetricsHub;
use sapphire_rdf::{snapshot, Partitioner};
use sapphire_server::{ServerError, ShardService};
use sapphire_sparql::SelectQuery;
use sapphire_text::Lexicon;
use sapphire_wire::{WireClient, WireClientConfig, WireServer, WireServerConfig};

use crate::serve::{closed_loop_sections, ClassStats};
use crate::{dataset_for, experiment_config, serving_posture};

/// What sits under the router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// The router calls the in-process replicas directly.
    InProcess,
    /// Every replica behind a loopback [`WireServer`] thread in this process.
    Sockets,
    /// Every replica a `wire_shard` process. With `snapshot`, this run
    /// writes per-shard snapshots first and the children load them instead
    /// of regenerating their slices; the parent still generates and
    /// partitions (it needs the reference and the snapshot bytes), which is
    /// exactly the per-child cost the snapshot path avoids — the report's
    /// `bringup` section holds both sides of that comparison.
    Processes {
        /// Bring the children up from snapshots.
        snapshot: bool,
    },
}

impl Transport {
    fn name(self) -> &'static str {
        match self {
            Transport::InProcess => "in_process",
            Transport::Sockets => "sockets",
            Transport::Processes { .. } => "processes",
        }
    }
}

/// Everything the cluster harness can be asked to do.
#[derive(Debug, Clone)]
pub struct ClusterLoadOptions {
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
    /// Questions (and QCM terms) replayed against the reference router
    /// (`0` skips the check).
    pub determinism_sample: usize,
    /// Trace one request in N through the router's flight recorder (`0` =
    /// off; slowest traces dump to stderr after the run).
    pub trace_sample: u32,
    /// What sits under the router.
    pub transport: Transport,
    /// Crash one replica mid-run (kill its connections, refuse redials);
    /// needs a wire transport and at least 2 replicas.
    pub kill_replica: bool,
}

impl Default for ClusterLoadOptions {
    fn default() -> Self {
        ClusterLoadOptions {
            users: 8,
            rounds: 2,
            scale: "tiny".to_string(),
            shards: 2,
            replicas: 2,
            determinism_sample: 8,
            trace_sample: 0,
            transport: Transport::InProcess,
            kill_replica: false,
        }
    }
}

impl ClusterLoadOptions {
    /// The CI wire smoke posture: 2×2 on loopback sockets, one replica
    /// killed mid-run, replay check on. Small enough to ride inside
    /// `serve_check`.
    pub fn wire_smoke() -> Self {
        ClusterLoadOptions {
            users: 4,
            transport: Transport::Sockets,
            kill_replica: true,
            ..ClusterLoadOptions::default()
        }
    }

    /// The CI snapshot posture: shard processes brought up from freshly
    /// written snapshots, replay check on, no kill drill (the gate is
    /// bring-up, not failover).
    pub fn snapshot_smoke() -> Self {
        ClusterLoadOptions {
            users: 4,
            rounds: 1,
            transport: Transport::Processes { snapshot: true },
            ..ClusterLoadOptions::default()
        }
    }
}

/// Fold a router outcome into the per-class stats buckets (the cluster's
/// typed errors carry the shard's typed rejection). Shared with the
/// open-loop overload harness in [`crate::overload`].
pub(crate) fn flatten(result: Result<(), ClusterError>) -> Result<(), ServerError> {
    match result {
        Ok(()) => Ok(()),
        Err(ClusterError::ShardUnavailable { last, .. }) => Err(last),
        Err(ClusterError::Shard { error, .. }) | Err(ClusterError::CrossShard { error }) => {
            Err(error)
        }
        Err(ClusterError::Unsupported(m)) => Err(ServerError::Backend(m)),
    }
}

/// Build `rows` under `modifiers` into a query against the shard models.
/// Keyword predicates resolve against a shard-local cache; a rare predicate
/// can be missing from one shard's slice (all its subjects hashed
/// elsewhere), so this walks the shards in order and takes the first that
/// can build the script — deterministic for the fixed seed. Shared with the
/// overload harness's query factory.
pub(crate) fn resolve(
    models: &[Arc<PredictiveUserModel>],
    rows: &[TripleInput],
    modifiers: &Modifiers,
) -> Option<SelectQuery> {
    models.iter().find_map(|m| {
        Session::resume(m, rows.to_vec(), modifiers.clone(), 0)
            .build_query()
            .ok()
    })
}

/// Each workload question's query, built once (see [`resolve`]).
fn workload_queries(
    models: &[Arc<PredictiveUserModel>],
    questions: &[Question],
) -> Vec<SelectQuery> {
    questions
        .iter()
        .map(|q| {
            resolve(models, &q.script.rows, &q.script.modifiers())
                .expect("some shard resolves every workload script")
        })
        .collect()
}

/// Replay the first `sample` queries (and each one's first QCM keyword)
/// through two routers and count the requests whose bytes differ — answers,
/// alternative lists, completions — or that either side failed.
fn replay_mismatches(
    router: &ClusterRouter,
    reference: &ClusterRouter,
    queries: &[SelectQuery],
    questions: &[Question],
    sample: usize,
) -> u64 {
    let sample = sample.min(queries.len());
    let mut mismatches = 0u64;
    for query in &queries[..sample] {
        let same = match (router.run("replay", query), reference.run("replay", query)) {
            (Ok(a), Ok(b)) => {
                a.answers == b.answers
                    && a.alternatives.len() == b.alternatives.len()
                    && a.alternatives.iter().zip(&b.alternatives).all(|(x, y)| {
                        x.replacement == y.replacement
                            && x.position == y.position
                            && x.answers == y.answers
                    })
            }
            _ => false,
        };
        mismatches += u64::from(!same);
    }
    for question in &questions[..sample] {
        let keyword = question.script.rows[0].object.trim_start_matches('?');
        let same = match (
            router.complete("replay", keyword),
            reference.complete("replay", keyword),
        ) {
            (Ok(a), Ok(b)) => a.suggestions == b.suggestions,
            _ => false,
        };
        mismatches += u64::from(!same);
    }
    mismatches
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

/// What hosts a wire replica: a server thread in this process or a
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

/// One replica as the router sees it, and what hosts it (nothing in
/// process).
struct Replica {
    service: Arc<dyn ShardService>,
    host: Option<ReplicaHost>,
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

/// Spawn the `wire_shard` child for one replica and read its `WIRE_READY`
/// handshake. The binary sits next to the running executable (both are
/// `sapphire-bench` bins, so a normal build puts them together). With
/// `snapshot_dir` set, the child loads its shard's snapshot from there
/// instead of regenerating.
fn spawn_shard(
    opts: &ClusterLoadOptions,
    (shard, replica): (usize, usize),
    snapshot_dir: Option<&Path>,
) -> (Child, SocketAddr, ChildBringup) {
    let bin = std::env::current_exe()
        .expect("current_exe")
        .with_file_name(format!("wire_shard{}", std::env::consts::EXE_SUFFIX));
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
        .spawn()
        .unwrap_or_else(|e| {
            panic!(
                "spawn {} ({e}); build it with \
                 `cargo build --release -p sapphire-bench --bin wire_shard`",
                bin.display()
            )
        });
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("piped child stdout"))
        .read_line(&mut line)
        .expect("read the wire_shard handshake");
    let (addr, mode, data_us) = parse_handshake(&line)
        .unwrap_or_else(|| panic!("wire_shard s{shard}r{replica} bad handshake: {line:?}"));
    let bringup = ChildBringup {
        shard,
        replica,
        mode,
        data_us,
    };
    (child, addr, bringup)
}

/// Put every replica of `cluster` under the chosen transport: as it is, or
/// behind a wire server thread, or replaced by a `wire_shard` process over
/// the same slice; a wire replica is dialed through a [`WireClient`].
fn start_replicas(
    opts: &ClusterLoadOptions,
    cluster: &Cluster,
    snapshot_dir: Option<&Path>,
) -> (Vec<Vec<Replica>>, Vec<ChildBringup>) {
    let mut children = Vec::new();
    let mut shards = Vec::with_capacity(cluster.shard_count());
    for (shard, servers) in cluster.shards().iter().enumerate() {
        let mut replicas = Vec::with_capacity(servers.len());
        for (replica, server) in servers.iter().enumerate() {
            let (host, addr) = match opts.transport {
                Transport::InProcess => {
                    replicas.push(Replica {
                        service: server.clone(),
                        host: None,
                    });
                    continue;
                }
                Transport::Sockets => {
                    let server = WireServer::serve(
                        server.clone(),
                        "127.0.0.1:0",
                        WireServerConfig::default(),
                    )
                    .expect("bind loopback wire server");
                    let addr = server.local_addr();
                    (ReplicaHost::Thread(server), addr)
                }
                Transport::Processes { .. } => {
                    let (child, addr, bringup) = spawn_shard(opts, (shard, replica), snapshot_dir);
                    children.push(bringup);
                    (ReplicaHost::Process(child), addr)
                }
            };
            let client = WireClient::connect(addr, WireClientConfig::default())
                .expect("handshake with wire replica");
            replicas.push(Replica {
                service: Arc::new(client),
                host: Some(host),
            });
        }
        shards.push(replicas);
    }
    (shards, children)
}

/// The optional kill drill: when the `kill_at`-th QSM run completes, crash
/// the first replica of shard 0 — the one load-order ties favor, so it is
/// carrying primary traffic when it dies (its siblings must absorb the
/// rest).
struct KillDrill {
    victim: Mutex<Option<ReplicaHost>>,
    kill_at: usize,
    runs_done: AtomicUsize,
}

impl KillDrill {
    fn after_run(&self) {
        if self.runs_done.fetch_add(1, Ordering::SeqCst) + 1 == self.kill_at {
            if let Some(victim) = self.victim.lock().unwrap().take() {
                eprintln!("(crashing one replica after {} runs…)", self.kill_at);
                victim.kill();
            }
        }
    }
}

/// Run the cluster workload and return the report.
pub fn run(opts: &ClusterLoadOptions) -> MetricsHub {
    let dataset = dataset_for(&opts.scale);
    let processes = matches!(opts.transport, Transport::Processes { .. });
    eprintln!(
        "(generating dataset + initializing {} shard models x {} replicas{}…)",
        opts.shards,
        opts.replicas,
        if processes {
            " + one wire_shard process each"
        } else {
            ""
        }
    );
    // Timed bring-up phases: generate, partition, model init. Generate and
    // partition are what every child would pay to regenerate its slice —
    // the reference the snapshot loads are gated against.
    let clock = Instant::now();
    let graph = generate(dataset);
    let parent_generate_us = clock.elapsed().as_micros() as u64;
    let triple_count = graph.len();
    let clock = Instant::now();
    let partition = Partitioner::new(opts.shards).split(&graph);
    let parent_partition_us = clock.elapsed().as_micros() as u64;

    // Snapshot bring-up persists the shard slices before standing anything
    // up: they are the children's only data source.
    let snapshot_dir: Option<PathBuf> = (opts.transport == Transport::Processes { snapshot: true })
        .then(|| std::env::temp_dir().join(format!("sapphire-wire-snap-{}", std::process::id())));
    let mut snapshot_write_us = 0u64;
    if let Some(dir) = &snapshot_dir {
        std::fs::create_dir_all(dir).expect("create snapshot dir");
        let clock = Instant::now();
        for (i, shard_graph) in partition.shards.iter().enumerate() {
            let path = dir.join(snapshot::shard_file_name(&opts.scale, i, opts.shards));
            snapshot::write(shard_graph, &path).expect("write shard snapshot");
        }
        snapshot_write_us = clock.elapsed().as_micros() as u64;
        eprintln!(
            "(wrote {} shard snapshots to {} in {snapshot_write_us}µs)",
            opts.shards,
            dir.display()
        );
    }

    let clock = Instant::now();
    let cluster = Cluster::build_from_shards(
        "edge",
        partition.shards,
        partition.schema_triples,
        partition.data_triples,
        opts.replicas,
        &Lexicon::dbpedia_default(),
        &experiment_config(),
        &serving_posture(),
    )
    .expect("shard initialization");
    let model_init_us = clock.elapsed().as_micros() as u64;
    let schema_triples = cluster.schema_triples();
    let stored_triples: usize =
        cluster.data_triples().iter().sum::<usize>() + schema_triples * cluster.shard_count();

    let (mut replicas, children) = start_replicas(opts, &cluster, snapshot_dir.as_deref());
    let router = Arc::new(ClusterRouter::over(
        replicas
            .iter()
            .map(|shard| shard.iter().map(|r| r.service.clone()).collect())
            .collect(),
        ClusterConfig::default(),
    ));
    router.obs().set_sampling(opts.trace_sample);
    // The reference: a plain router with its own cold edge caches straight
    // over the in-process replicas, no sockets anywhere.
    let reference = ClusterRouter::new(
        Cluster::from_replicas(cluster.shards().to_vec()),
        ClusterConfig::default(),
    );

    let models: Vec<_> = (0..cluster.shard_count())
        .map(|s| cluster.replicas(s)[0].model().clone())
        .collect();
    let questions = appendix_b();
    let queries = workload_queries(&models, &questions);

    let drill = opts.kill_replica.then(|| {
        assert!(
            opts.transport != Transport::InProcess && opts.replicas >= 2,
            "--kill-replica needs a wire transport and at least 2 replicas per shard"
        );
        KillDrill {
            victim: Mutex::new(replicas[0][0].host.take()),
            kill_at: (opts.users * opts.rounds * questions.len() / 2).max(1),
            runs_done: AtomicUsize::new(0),
        }
    });

    eprintln!(
        "(driving {} users x {} rounds over {} questions against {} shards, {}{}…)",
        opts.users,
        opts.rounds,
        questions.len(),
        opts.shards,
        opts.transport.name(),
        if drill.is_some() {
            ", killing shard 0 replica 0 mid-run"
        } else {
            ""
        }
    );
    let started = Instant::now();
    let (mut qcm, mut qsm) = (ClassStats::default(), ClassStats::default());
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for user in 0..opts.users {
            let (router, questions, queries, drill) = (&router, &questions, &queries, &drill);
            handles.push(scope.spawn(move || {
                let tenant = format!("user-{user}");
                let mut qcm = ClassStats::default();
                let mut qsm = ClassStats::default();
                for round in 0..opts.rounds {
                    for qi in 0..questions.len() {
                        let idx = (qi + user + round) % questions.len();
                        for input in &questions[idx].script.rows {
                            let keyword = input.object.trim_start_matches('?');
                            for end in 1..=keyword.chars().count().min(6) {
                                let prefix: String = keyword.chars().take(end).collect();
                                let t = Instant::now();
                                let r = router.complete(&tenant, &prefix).map(|_| ());
                                qcm.record(t, &flatten(r));
                            }
                        }
                        let t = Instant::now();
                        let r = router.run(&tenant, &queries[idx]).map(|_| ());
                        qsm.record(t, &flatten(r));
                        if let Some(drill) = drill {
                            drill.after_run();
                        }
                    }
                }
                (qcm, qsm)
            }));
        }
        for h in handles {
            let (c, s) = h.join().expect("no worker panics");
            qcm.merge(c);
            qsm.merge(s);
        }
    });
    let wall = started.elapsed();

    // The dead replica must be provably dead: a direct probe on its client
    // (bypassing the router's failover) has to fail typed — and bump the
    // transport error counters the report surfaces.
    let replica_killed = drill.is_some_and(|d| d.victim.into_inner().unwrap().is_none());
    let dead_probe_failed = replica_killed
        && replicas[0][0]
            .service
            .complete_top("probe", "a", 1)
            .is_err();

    let merge_mismatches = replay_mismatches(
        &router,
        &reference,
        &queries,
        &questions,
        opts.determinism_sample,
    );

    let obs = router.obs();
    if opts.trace_sample > 0 {
        eprintln!(
            "(flight recorder: slowest end-to-end traces)\n{}",
            obs.recorder().dump_slowest(5)
        );
    }
    let mut hub = MetricsHub::new();
    hub.section("summary").field("benchmark", "serve_cluster");
    hub.section("config")
        .field("users", opts.users)
        .field("rounds", opts.rounds)
        .field("scale", opts.scale.as_str())
        .field("shards", opts.shards)
        .field("replicas", opts.replicas)
        .field("transport", opts.transport.name())
        .field("kill_replica", u64::from(opts.kill_replica))
        .field("triples", triple_count)
        .field("schema_triples", schema_triples)
        .field("stored_triples", stored_triples);
    closed_loop_sections(&mut hub, wall, &qcm, &qsm);
    hub.section("summary")
        .field("rejected_total", qcm.failed() + qsm.failed())
        .field("merge_mismatches", merge_mismatches);
    // Routing, transport (`wire_connects`, `wire_io_errors`, …) and
    // degraded-merge counters, per-shard fan-out, the edge caches and the
    // router's stages: the router's own export.
    hub.merge(router.export_metrics());
    hub.section("trace")
        .field("sampling", u64::from(opts.trace_sample))
        .field("recorded", obs.recorder().recorded())
        .field("dropped", obs.recorder().evicted());
    hub.section("kill_drill")
        .field("replica_killed", u64::from(replica_killed))
        .field("dead_probe_failed", u64::from(dead_probe_failed));
    // How every tier got its data and what it cost.
    let snapshot_loads = children.iter().filter(|c| c.mode == "snapshot").count();
    let bringup = hub.section("bringup");
    bringup
        .field(
            "mode",
            if snapshot_dir.is_some() {
                "snapshot"
            } else {
                "generate"
            },
        )
        .field("parent_generate_us", parent_generate_us)
        .field("parent_partition_us", parent_partition_us)
        .field("model_init_us", model_init_us)
        .field("snapshot_write_us", snapshot_write_us)
        .field("snapshot_loads", snapshot_loads)
        .field("generate_fallbacks", children.len() - snapshot_loads)
        .field(
            "max_child_data_us",
            children.iter().map(|c| c.data_us).max().unwrap_or(0),
        );
    for c in &children {
        bringup
            .field(&format!("s{}r{}_mode", c.shard, c.replica), c.mode.as_str())
            .field(&format!("s{}r{}_data_us", c.shard, c.replica), c.data_us);
    }

    // Graceful teardown of everything still alive.
    for host in replicas.into_iter().flatten().filter_map(|r| r.host) {
        host.stop();
    }
    if let Some(dir) = &snapshot_dir {
        std::fs::remove_dir_all(dir).ok();
    }
    hub
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_handshake_reads_its_positional_address_and_keys_in_any_order() {
        let addr: SocketAddr = "127.0.0.1:4242".parse().unwrap();
        assert_eq!(
            parse_handshake("WIRE_READY 127.0.0.1:4242 bringup=snapshot data_us=17\n"),
            Some((addr, "snapshot".to_string(), 17))
        );
        assert_eq!(
            parse_handshake("WIRE_READY 127.0.0.1:4242 data_us=9 bringup=generate"),
            Some((addr, "generate".to_string(), 9))
        );
        // Without keys: the defaults.
        assert_eq!(
            parse_handshake("WIRE_READY 127.0.0.1:4242"),
            Some((addr, "generate".to_string(), 0))
        );
    }

    #[test]
    fn a_handshake_ignores_unknown_keys() {
        let addr: SocketAddr = "127.0.0.1:4242".parse().unwrap();
        assert_eq!(
            parse_handshake("WIRE_READY 127.0.0.1:4242 pid=77 bringup=snapshot extra data_us=5"),
            Some((addr, "snapshot".to_string(), 5))
        );
    }

    #[test]
    fn a_malformed_handshake_is_none() {
        assert_eq!(
            parse_handshake("WIRE_READY 127.0.0.1:4242 data_us=fast"),
            None,
            "a non-numeric data_us"
        );
        assert_eq!(
            parse_handshake("READY 127.0.0.1:4242 data_us=5"),
            None,
            "no WIRE_READY prefix"
        );
        assert_eq!(parse_handshake(""), None);
        assert_eq!(parse_handshake("WIRE_READY not-an-address"), None);
    }
}

//! Bring-up of the systems under test, in their shipped posture: a
//! single-box server behind the evented front-end, and a two-shard cluster
//! of child OS processes booted from snapshot files behind the edge router.
//!
//! Every step that belongs to a layer is timed, so the ledger can say what
//! set-up is made of.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sapphire_bench::experiment_config;
use sapphire_cluster::{Cluster, ClusterConfig, ClusterRouter};
use sapphire_core::{CachedData, InitMode, PredictiveUserModel, SapphireConfig};
use sapphire_datagen::{generate, DatasetConfig};
use sapphire_endpoint::{Endpoint, EndpointLimits, FederatedProcessor, LocalEndpoint};
use sapphire_rdf::{snapshot, Graph, Partitioner};
use sapphire_server::{Frontend, FrontendConfig, SapphireServer, ServerConfig, ShardService};
use sapphire_text::Lexicon;
use sapphire_wire::{WireClient, WireClientConfig, WireServer, WireServerConfig};

/// The argument that turns the harness binary into one shard replica.
pub const SHARD_CHILD_FLAG: &str = "--shard-child";

/// Shards (one replica each) in the `cluster_wire` topology.
pub const SHARDS: usize = 2;

/// A dataset size plus the one model override that goes with it.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub name: &'static str,
    pub dataset: DatasetConfig,
    /// `suffix_tree_capacity`: the paper indexes a small significant head
    /// and leaves a large residual tail to Algorithm 1's bin scan. With the
    /// default 40,000 every literal of these datasets fits the tree and the
    /// residual scan gets no traffic, so each scale keeps about one literal
    /// in twelve in the tree (as `init_cost` and `qcm_response` also do).
    pub suffix_tree_capacity: usize,
    /// Constants per literal slot in a run's vocabulary.
    pub vocabulary_per_slot: usize,
}

/// The experiments' fixed dataset seed: `--seed` varies the requests, never
/// the data, so two seeds differ only in what is asked.
const DATASET_SEED: u64 = 42;

impl Scale {
    /// The four datasets a run can be on, by the name a shard child is
    /// handed: `bench` (the single-box workloads, 0.4 × `medium` ≈ 60 k
    /// triples), `cluster` (`cluster_wire`: the `small` dataset, one
    /// constant per slot), and what the smoke run puts in their place,
    /// `small` and `tiny`. Which one a run uses follows from its workload;
    /// it is not a knob.
    pub fn named(name: &str) -> Option<Scale> {
        match name {
            // Model initialization is quadratic in the dataset today (43 ms
            // at small, 1.1 s here, 9.5 s at medium). This is the largest
            // size at which three complete set-ups and the measured passes
            // of every acceptance run fit the driver's time cap.
            "bench" => {
                let m = DatasetConfig::medium(DATASET_SEED);
                Some(Scale {
                    name: "bench",
                    dataset: DatasetConfig {
                        seed: DATASET_SEED,
                        persons: m.persons * 2 / 5,
                        cities: m.cities * 2 / 5,
                        works: m.works * 2 / 5,
                        organisations: m.organisations * 2 / 5,
                        noise_literals: m.noise_literals * 2 / 5,
                    },
                    suffix_tree_capacity: 500,
                    vocabulary_per_slot: 16,
                })
            }
            "cluster" => Some(Scale {
                name: "cluster",
                dataset: DatasetConfig::small(DATASET_SEED),
                suffix_tree_capacity: 128,
                vocabulary_per_slot: 1,
            }),
            "small" => Some(Scale {
                name: "small",
                dataset: DatasetConfig::small(DATASET_SEED),
                suffix_tree_capacity: 128,
                vocabulary_per_slot: 4,
            }),
            "tiny" => Some(Scale {
                name: "tiny",
                dataset: DatasetConfig::tiny(DATASET_SEED),
                suffix_tree_capacity: 32,
                vocabulary_per_slot: 1,
            }),
            _ => None,
        }
    }

    /// The model configuration: the experiments' (`processes` = cores), plus
    /// the stated tree-capacity override.
    pub fn model_config(&self) -> SapphireConfig {
        SapphireConfig {
            suffix_tree_capacity: self.suffix_tree_capacity,
            ..experiment_config()
        }
    }
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Response-cache size of the workloads whose Runs must all miss: one
/// sixteenth of a pass, so the caches are written and evicted on every
/// request and memory stays flat after the warm-up. A shard cannot hold
/// fewer than one entry, so small passes also get fewer shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColdCache {
    pub shards: usize,
    pub capacity_per_shard: usize,
}

impl ColdCache {
    pub fn for_pass_of(runs_per_pass: usize) -> ColdCache {
        let entries = (runs_per_pass / 16).max(1);
        let shards = entries.min(ServerConfig::default().cache_shards);
        ColdCache {
            shards,
            capacity_per_shard: entries.div_ceil(shards),
        }
    }

    fn server_config(self, name: String) -> ServerConfig {
        ServerConfig {
            name,
            cache_shards: self.shards,
            cache_capacity_per_shard: self.capacity_per_shard,
            ..ServerConfig::default()
        }
    }

    fn edge_config(self) -> ClusterConfig {
        ClusterConfig {
            cache_shards: self.shards,
            cache_capacity_per_shard: self.capacity_per_shard,
            ..ClusterConfig::default()
        }
    }
}

/// A single-box deployment: model, server, evented front-end.
pub struct SingleBox {
    pub frontend: Frontend,
    pub server: Arc<SapphireServer>,
    pub pum: Arc<PredictiveUserModel>,
    pub endpoint: Arc<LocalEndpoint>,
    pub generate_ms: f64,
    pub init_ms: f64,
}

impl SingleBox {
    /// Generate the dataset, run §5 initialization, stand the server and
    /// the front-end up. `cold` shrinks the response caches (`None` = the
    /// shipped default).
    pub fn bring_up(scale: &Scale, cold: Option<ColdCache>) -> SingleBox {
        let t = Instant::now();
        let graph = generate(scale.dataset);
        let generate_ms = ms(t);
        let t = Instant::now();
        let endpoint = Arc::new(LocalEndpoint::new(
            "dbpedia",
            graph,
            EndpointLimits::warehouse(),
        ));
        let pum = Arc::new(
            PredictiveUserModel::initialize(
                vec![endpoint.clone() as Arc<dyn Endpoint>],
                Lexicon::dbpedia_default(),
                scale.model_config(),
                InitMode::Federated,
            )
            .expect("model initialization"),
        );
        let init_ms = ms(t);
        let config = match cold {
            Some(cold) => cold.server_config(ServerConfig::default().name),
            None => ServerConfig::default(),
        };
        let server = Arc::new(SapphireServer::new(pum.clone(), config));
        let frontend = Frontend::new(server.clone(), FrontendConfig::default());
        SingleBox {
            frontend,
            server,
            pum,
            endpoint,
            generate_ms,
            init_ms,
        }
    }

    /// The model the single-box workloads' Runs are compared with: the
    /// results of this box's initialization assembled a second time — a
    /// suffix tree, residual bins and memo caches of its own, over the same
    /// endpoint — so that nothing the serving tiers left in the served
    /// model's memo caches can agree with itself.
    ///
    /// Completions are not compared with it: a suffix tree returns the
    /// matches beyond its limit in its own hash order (README, "Findings"),
    /// so no second tree — this one, or a second initialization's — can be
    /// held to the served one byte for byte.
    pub fn oracle_model(&self) -> PredictiveUserModel {
        let served = self.pum.qcm().cache();
        // Taken apart the way `PredictiveUserModel::initialize` pools the
        // caches of its endpoints before assembling them.
        let mut literals = served.significant.clone();
        literals
            .extend((0..served.bins.len() as u32).map(|i| (served.bins.literal(i).to_string(), 0)));
        let config = self.pum.config().clone();
        let cache = CachedData::assemble(served.predicates.clone(), literals, &config)
            .with_classes(served.classes.clone());
        let mut federation = FederatedProcessor::new();
        federation.register(self.endpoint.clone());
        PredictiveUserModel::from_cache(
            Arc::new(cache),
            Lexicon::dbpedia_default(),
            federation,
            config,
            Vec::new(),
        )
    }

    pub fn graph(&self) -> &Graph {
        self.endpoint.graph()
    }
}

/// The directory the harness may write in: `benchmark/out` of the checkout
/// it was built in, else of the current directory.
pub fn out_dir() -> PathBuf {
    let built_in = Path::new(env!("CARGO_MANIFEST_DIR"));
    let base = if built_in.is_dir() {
        built_in.to_path_buf()
    } else {
        PathBuf::from("benchmark")
    };
    base.join("out")
}

/// A per-run scratch directory under [`out_dir`], removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn create() -> std::io::Result<ScratchDir> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or(0);
        let path = out_dir().join(format!("run-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        // A run killed by a signal cannot clean up after itself; the next
        // run removes what dead runs left behind.
        for entry in std::fs::read_dir(out_dir())?.flatten() {
            let name = entry.file_name();
            let owner = name
                .to_str()
                .and_then(|n| n.strip_prefix("run-"))
                .and_then(|n| n.split('-').next())
                .and_then(|pid| pid.parse::<u32>().ok());
            if owner.is_some_and(|pid| !Path::new(&format!("/proc/{pid}")).exists()) {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One shard replica running as a child process. Dropping it shuts the
/// child down (stdin EOF), waits, and kills it if it will not go — on every
/// path, including a panic unwinding through the owner. A child whose
/// parent dies without unwinding sees the same EOF and exits by itself.
pub struct ShardChild {
    child: Child,
    pub addr: SocketAddr,
    /// Child-side snapshot read + decode, ms.
    pub load_ms: f64,
    /// Child-side model initialization, ms.
    pub init_ms: f64,
}

impl ShardChild {
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    fn spawn(
        scale: &Scale,
        shard: usize,
        snapshot: &Path,
        cold: ColdCache,
    ) -> std::io::Result<Self> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg(SHARD_CHILD_FLAG)
            .args(["--scale", scale.name])
            .args(["--shard", &shard.to_string()])
            .args(["--cache-shards", &cold.shards.to_string()])
            .args(["--cache-capacity", &cold.capacity_per_shard.to_string()])
            .arg("--snapshot")
            .arg(snapshot)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        // From here on the guard owns the process: any early return reaps it.
        let stdout = child.stdout.take().expect("piped child stdout");
        let mut guard = ShardChild {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            load_ms: 0.0,
            init_ms: 0.0,
        };
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line)?;
        let mut tokens = line.split_whitespace();
        let bad = || std::io::Error::other(format!("shard {shard}: bad handshake {line:?}"));
        if tokens.next() != Some("WIRE_READY") {
            return Err(bad());
        }
        guard.addr = tokens.next().and_then(|a| a.parse().ok()).ok_or_else(bad)?;
        for token in tokens {
            if let Some(v) = token.strip_prefix("load_us=") {
                guard.load_ms = v.parse::<f64>().map_err(|_| bad())? / 1e3;
            } else if let Some(v) = token.strip_prefix("init_us=") {
                guard.init_ms = v.parse::<f64>().map_err(|_| bad())? / 1e3;
            }
        }
        Ok(guard)
    }
}

impl Drop for ShardChild {
    fn drop(&mut self) {
        drop(self.child.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(2);
        while Instant::now() < deadline {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The body of a shard child: load the snapshot, initialize the shard
/// model, serve over a loopback wire listener until stdin closes.
pub fn shard_child_main(args: &[String]) -> Result<(), String> {
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .ok_or_else(|| format!("shard child: missing {flag}"))
    };
    let scale = Scale::named(value("--scale")?).ok_or("shard child: unknown --scale")?;
    let shard: usize = value("--shard")?.parse().map_err(|_| "bad --shard")?;
    let cold = ColdCache {
        shards: value("--cache-shards")?
            .parse()
            .map_err(|_| "bad --cache-shards")?,
        capacity_per_shard: value("--cache-capacity")?
            .parse()
            .map_err(|_| "bad --cache-capacity")?,
    };
    let path = PathBuf::from(value("--snapshot")?);

    let t = Instant::now();
    let graph = snapshot::load(&path).map_err(|e| format!("snapshot {}: {e}", path.display()))?;
    let load_us = t.elapsed().as_micros();
    let t = Instant::now();
    let pum = Arc::new(
        PredictiveUserModel::initialize_local(
            format!("edge-s{shard}"),
            graph,
            EndpointLimits::warehouse(),
            Lexicon::dbpedia_default(),
            scale.model_config(),
            InitMode::Federated,
        )
        .map_err(|e| format!("shard model initialization: {e}"))?,
    );
    let init_us = t.elapsed().as_micros();
    let server = Arc::new(SapphireServer::new(
        pum,
        cold.server_config(format!("edge-s{shard}r0")),
    ));
    let wire = WireServer::serve(
        server as Arc<dyn ShardService>,
        "127.0.0.1:0",
        WireServerConfig::default(),
    )
    .map_err(|e| format!("bind loopback wire listener: {e}"))?;
    {
        use std::io::Write;
        let mut out = std::io::stdout().lock();
        writeln!(
            out,
            "WIRE_READY {} load_us={load_us} init_us={init_us}",
            wire.local_addr()
        )
        .and_then(|()| out.flush())
        .map_err(|e| format!("handshake: {e}"))?;
    }
    // Serve until the parent closes (or loses) its end of our stdin.
    let _ = std::io::copy(&mut std::io::stdin().lock(), &mut std::io::sink());
    wire.shutdown();
    Ok(())
}

/// The data side of a cluster bring-up, kept for the oracle and the pool.
pub struct ClusterData {
    pub graph: Graph,
    pub shard_graphs: Vec<Graph>,
    pub schema_triples: usize,
    pub data_triples: Vec<usize>,
}

/// Two shard processes behind edge routers over pipelined wire clients.
///
/// There is one edge router — with its own connection to every shard — per
/// closed-loop client. One shared edge would be the smaller topology, but
/// two clients then pipeline on one connection per shard, the shard's
/// accepted socket has Nagle's algorithm on, and a reply written while the
/// previous reply is unacknowledged waits for the peer's delayed ACK: 40 ms,
/// on a request that otherwise takes 0.3 ms. Which requests collide is a
/// race, so `qcm_p90_us` flipped between 1 ms and 42 ms and `qsm_p50_us`
/// between 17 ms and 47 ms from run to run of the same code (README,
/// "Findings"). With a connection per client no connection ever has two
/// replies in flight; the ledger's `wire.pipelined_rtt_p90_us` keeps the
/// shared-connection case measured.
///
/// Field order is drop order: routers and their connections go first, then
/// the children, then their snapshot files.
pub struct WireCluster {
    /// One per closed-loop client, all recording into [`obs`](Self::obs).
    pub routers: Vec<Arc<ClusterRouter>>,
    pub obs: Arc<sapphire_obs::Obs>,
    pub children: Vec<ShardChild>,
    _scratch: ScratchDir,
    /// The generated and partitioned data, until the oracle takes it.
    pub data: Option<ClusterData>,
    pub generate_ms: f64,
    pub partition_ms: f64,
    /// Encode + write of every shard snapshot.
    pub snapshot_write_ms: f64,
    pub snapshot_bytes: u64,
    /// Spawn → last `WIRE_READY` (children load and initialize in parallel).
    pub children_ready_ms: f64,
    /// Dial + HELLO of every client, and router construction.
    pub connect_ms: f64,
}

impl WireCluster {
    /// The old `bringup` workload: generate → partition → write snapshots →
    /// spawn → (child) load + init → HELLO.
    pub fn bring_up(scale: &Scale, cold: ColdCache, edges: usize) -> Result<WireCluster, String> {
        let t = Instant::now();
        let graph = generate(scale.dataset);
        let generate_ms = ms(t);
        let t = Instant::now();
        let partition = Partitioner::new(SHARDS).split(&graph);
        let partition_ms = ms(t);

        let scratch = ScratchDir::create().map_err(|e| format!("scratch dir: {e}"))?;
        let t = Instant::now();
        let mut snapshot_bytes = 0;
        let mut paths = Vec::new();
        for (i, shard_graph) in partition.shards.iter().enumerate() {
            let path = scratch
                .path()
                .join(snapshot::shard_file_name(scale.name, i, SHARDS));
            snapshot_bytes +=
                snapshot::write(shard_graph, &path).map_err(|e| format!("write snapshot: {e}"))?;
            paths.push(path);
        }
        let snapshot_write_ms = ms(t);

        // Spawn every child before reading any handshake, so the shards
        // load and initialize side by side.
        let t = Instant::now();
        let spawned: Vec<_> = paths
            .iter()
            .enumerate()
            .map(|(i, path)| {
                let (scale, path) = (*scale, path.clone());
                std::thread::spawn(move || ShardChild::spawn(&scale, i, &path, cold))
            })
            .collect();
        let mut children = Vec::new();
        let mut first_error = None;
        for handle in spawned {
            match handle.join().expect("spawn thread never panics") {
                Ok(child) => children.push(child),
                Err(e) => first_error = first_error.or(Some(e)),
            }
        }
        if let Some(e) = first_error {
            return Err(format!("shard child bring-up: {e}"));
        }
        let children_ready_ms = ms(t);

        let t = Instant::now();
        let obs = Arc::new(sapphire_obs::Obs::new());
        let routers = (0..edges)
            .map(|_| {
                let shards = children
                    .iter()
                    .map(|c| {
                        WireClient::connect(c.addr, WireClientConfig::default())
                            .map(|client| vec![Arc::new(client) as Arc<dyn ShardService>])
                            .map_err(|e| format!("dial {}: {e}", c.addr))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Arc::new(ClusterRouter::over_with_obs(
                    shards,
                    cold.edge_config(),
                    obs.clone(),
                )))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let connect_ms = ms(t);

        Ok(WireCluster {
            routers,
            obs,
            children,
            _scratch: scratch,
            data: Some(ClusterData {
                graph,
                shard_graphs: partition.shards,
                schema_triples: partition.schema_triples,
                data_triples: partition.data_triples,
            }),
            generate_ms,
            partition_ms,
            snapshot_write_ms,
            snapshot_bytes,
            children_ready_ms,
            connect_ms,
        })
    }

    /// Slowest child-side model initialization, ms.
    pub fn child_init_ms(&self) -> f64 {
        self.children.iter().map(|c| c.init_ms).fold(0.0, f64::max)
    }

    /// Slowest child-side snapshot load, ms.
    pub fn child_load_ms(&self) -> f64 {
        self.children.iter().map(|c| c.load_ms).fold(0.0, f64::max)
    }
}

/// The same shards in this process, no sockets: what `cluster_wire`'s
/// answers are compared against, and where its queries are built.
pub fn oracle_cluster(
    scale: &Scale,
    data: ClusterData,
    cold: ColdCache,
) -> Result<(Graph, ClusterRouter), String> {
    let cluster = Cluster::build_from_shards(
        "edge",
        data.shard_graphs,
        data.schema_triples,
        data.data_triples,
        1,
        &Lexicon::dbpedia_default(),
        &scale.model_config(),
        &cold.server_config("edge".to_string()),
    )
    .map_err(|e| format!("oracle cluster: {e}"))?;
    Ok((data.graph, ClusterRouter::new(cluster, cold.edge_config())))
}

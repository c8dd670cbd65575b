//! The `serve_load` harness as a library.
//!
//! The closed-loop load generator used to live entirely inside the
//! `serve_load` binary; it is a library module so the CI regression gate
//! (`serve_check`) can drive the *same* workload in-process and gate the
//! same report `serve_load` prints — one workload definition, two consumers.
//!
//! Two phases:
//!
//! 1. **Closed loop** — N users replay Appendix-B session scripts
//!    (per-keystroke QCM completions, then a QSM "Run" per question) against
//!    one shared [`SapphireServer`].
//! 2. **Duplicate burst** (optional) — K users issue the *same* cold QCM and
//!    QSM request at the same instant, several rounds, modelling many users
//!    typing the same prefix at once. With single-flight coalescing each
//!    round costs one model scan per request class; the report carries the
//!    `coalesce_leader_runs` / `coalesced_hits` deltas so the effect is a
//!    number, not a claim. Run it with `coalesce_waiters == 0` to measure
//!    the pre-coalescing behaviour (every duplicate scans).
//!
//! The report is a [`MetricsHub`]: the server's own
//! [`export_metrics`](SapphireServer::export_metrics) sections plus the
//! harness's. `serve_load` prints its `to_json()`; `serve_check` reads the
//! values with `get`, never the text.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use sapphire_cluster::{Cluster, ClusterConfig, ClusterRouter};
use sapphire_core::prelude::*;
use sapphire_core::session::Modifiers;
use sapphire_core::InitMode;
use sapphire_datagen::generate;
use sapphire_datagen::workload::appendix_b;
use sapphire_obs::{MetricsHub, Obs, Section};
use sapphire_server::{SapphireServer, ServerConfig, ServerError};

use crate::dataset_for;
use crate::experiment_config;

/// Everything `serve_load` can be asked to do.
#[derive(Debug, Clone)]
pub struct ServeLoadOptions {
    /// Closed-loop simulated users.
    pub users: usize,
    /// Times each user replays the whole Appendix-B question list.
    pub rounds: usize,
    /// Dataset scale (`tiny`/`small`/`medium`).
    pub scale: String,
    /// Admission in-flight limit (`0` = hardware-sized default, floored at 8
    /// so cramped CI boxes still exercise real parallelism).
    pub max_in_flight: usize,
    /// Admission queue depth (`0` = 4x the in-flight limit).
    pub max_queue_depth: usize,
    /// Users in the duplicate-burst phase (`0` skips the phase).
    pub burst_users: usize,
    /// Rounds of the duplicate-burst phase; each round is one cold QCM term
    /// and one cold QSM query issued by every burst user simultaneously.
    pub burst_rounds: usize,
    /// Per-key coalescing waiter cap (`0` disables single-flight — the
    /// pre-coalescing baseline behaviour).
    pub coalesce_waiters: usize,
    /// Queued-request deadline in milliseconds (`0` = 100ms, the serving
    /// posture). The CI gate raises this so a noisy-neighbor scheduler stall
    /// on a shared runner cannot manufacture a spurious `QueueTimeout`
    /// rejection and fail the zero-rejection gate.
    pub queue_wait_ms: u64,
    /// Open sessions for the evented front-end phase
    /// ([`crate::frontend::phase`], run over the same shared model and
    /// reported as the `frontend*` sections; `0` skips the phase).
    pub frontend_sessions: usize,
    /// Worker threads of the front-end phase.
    pub frontend_workers: usize,
    /// Trace one request in N through the shared flight recorder (`0` = off,
    /// the default — histograms stay on either way). `--trace` sets 1.
    pub trace_sample: u32,
    /// Shards of the embedded cluster scatter phase (1 replica each), which
    /// populates the cluster-tier stages (`shard_rtt`, `edge_merge`) in the
    /// same stage sections; `0` skips the phase.
    pub cluster_shards: usize,
    /// Cold scatter requests of the `medium`-scale smoke phase (`0` skips
    /// it). The phase builds a 4-shard edge over the `medium` dataset and
    /// drives cold-completion scatters through it, so the report carries
    /// the bigger-rung baseline the ROADMAP asks for at a fixed CI budget
    /// instead of the full workload (one `medium` QSM question alone can
    /// run for minutes).
    pub medium_smoke_requests: usize,
}

impl Default for ServeLoadOptions {
    fn default() -> Self {
        ServeLoadOptions {
            users: 32,
            rounds: 3,
            scale: "tiny".to_string(),
            max_in_flight: 0,
            max_queue_depth: 0,
            burst_users: 16,
            burst_rounds: 8,
            coalesce_waiters: ServerConfig::default().coalesce_waiters_per_key,
            queue_wait_ms: 0,
            frontend_sessions: crate::frontend::FrontendPhaseOptions::default().sessions,
            frontend_workers: crate::frontend::FrontendPhaseOptions::default().workers,
            trace_sample: 0,
            cluster_shards: 2,
            medium_smoke_requests: 256,
        }
    }
}

/// Latency samples and rejection counters for one request class (shared
/// with the cluster-mode harness in [`crate::cluster`]).
#[derive(Debug, Default, Clone)]
pub(crate) struct ClassStats {
    pub(crate) latencies_us: Vec<u64>,
    overloaded: u64,
    queue_timeout: u64,
    quota: u64,
    invalid: u64,
}

impl ClassStats {
    pub(crate) fn record(&mut self, started: Instant, result: &Result<(), ServerError>) {
        self.record_outcome(started.elapsed().as_micros() as u64, result);
    }

    /// Record with a latency measured by the caller (the front-end harness
    /// measures submit→callback, which no single `Instant` here can see).
    pub(crate) fn record_outcome(&mut self, latency_us: u64, result: &Result<(), ServerError>) {
        match result {
            Ok(()) => self.latencies_us.push(latency_us),
            Err(ServerError::Overloaded { .. }) => self.overloaded += 1,
            Err(ServerError::QueueTimeout { .. }) => self.queue_timeout += 1,
            Err(ServerError::QuotaExhausted { .. }) => self.quota += 1,
            Err(_) => self.invalid += 1,
        }
    }

    pub(crate) fn merge(&mut self, other: ClassStats) {
        self.latencies_us.extend(other.latencies_us);
        self.overloaded += other.overloaded;
        self.queue_timeout += other.queue_timeout;
        self.quota += other.quota;
        self.invalid += other.invalid;
    }

    pub(crate) fn rejected(&self) -> u64 {
        self.overloaded + self.queue_timeout + self.quota
    }

    /// Requests recorded, whatever their outcome — what the harness offered
    /// the server in this class.
    pub(crate) fn offered(&self) -> u64 {
        self.latencies_us.len() as u64 + self.rejected() + self.invalid
    }

    /// The typed outcome buckets in ledger order — overloaded, queue
    /// timeout, quota, invalid. The open-loop overload harness reports each
    /// class separately per sweep step (its gate distinguishes typed
    /// rejections, which are graceful, from untyped failures, which are not).
    pub(crate) fn typed_counts(&self) -> (u64, u64, u64, u64) {
        (
            self.overloaded,
            self.queue_timeout,
            self.quota,
            self.invalid,
        )
    }

    fn percentile(&self, sorted: &[u64], p: f64) -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        let idx = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
        sorted[idx]
    }

    /// Write this class's counts, throughput over `wall` and latency
    /// percentiles into `section`.
    pub(crate) fn fields(&self, wall: Duration, section: &mut Section) {
        let mut sorted = self.latencies_us.clone();
        sorted.sort_unstable();
        section
            .field("completed", sorted.len())
            .field(
                "throughput_rps",
                sorted.len() as f64 / wall.as_secs_f64().max(1e-9),
            )
            .field("p50_us", self.percentile(&sorted, 50.0))
            .field("p95_us", self.percentile(&sorted, 95.0))
            .field("p99_us", self.percentile(&sorted, 99.0))
            .field("rejected_overloaded", self.overloaded)
            .field("rejected_queue_timeout", self.queue_timeout)
            .field("rejected_quota", self.quota)
            .field("invalid", self.invalid);
    }
}

/// What every closed-loop report shares: `summary`'s wall clock and
/// QCM+QSM completion rate, and the two class sections.
pub(crate) fn closed_loop_sections(
    hub: &mut MetricsHub,
    wall: Duration,
    qcm: &ClassStats,
    qsm: &ClassStats,
) {
    hub.section("summary")
        .field("wall_seconds", wall.as_secs_f64())
        .field(
            "total_throughput_rps",
            (qcm.latencies_us.len() + qsm.latencies_us.len()) as f64 / wall.as_secs_f64().max(1e-9),
        );
    qcm.fields(wall, hub.section("qcm"));
    qsm.fields(wall, hub.section("qsm"));
}

/// Run the full workload and return the report.
pub fn run(opts: &ServeLoadOptions) -> MetricsHub {
    // `dataset_for` hard-errors on unknown names, so the reported scale is
    // always exactly what ran.
    let dataset = dataset_for(&opts.scale);

    eprintln!("(generating dataset + initializing shared model…)");
    let graph = generate(dataset);
    let triple_count = graph.len();
    // The embedded cluster scatter phase needs the graph by reference, so
    // its shard models initialize here, before the graph moves into the
    // single-box endpoint; the phase itself runs after the main workload.
    let mini_cluster = (opts.cluster_shards > 0).then(|| {
        eprintln!(
            "(initializing {} shard models for the cluster scatter phase…)",
            opts.cluster_shards
        );
        Cluster::build(
            "serve-edge",
            &graph,
            opts.cluster_shards,
            1,
            &Lexicon::dbpedia_default(),
            &experiment_config(),
            &ServerConfig::default(),
        )
        .expect("shard initialization")
    });
    let ep: Arc<dyn Endpoint> = Arc::new(LocalEndpoint::new(
        "dbpedia",
        graph,
        EndpointLimits::warehouse(),
    ));
    let pum = Arc::new(
        PredictiveUserModel::initialize(
            vec![ep],
            Lexicon::dbpedia_default(),
            experiment_config(),
            InitMode::Federated,
        )
        .expect("initialization"),
    );

    // Service posture: hardware-sized concurrency (floored at 8 so cramped
    // CI boxes still exercise real parallelism), a finite queue, and no
    // tenant quotas — overload shedding comes from the gate alone.
    let default_in_flight = ServerConfig::default().max_in_flight.max(8);
    let max_in_flight = if opts.max_in_flight > 0 {
        opts.max_in_flight
    } else {
        default_in_flight
    };
    let max_queue_depth = if opts.max_queue_depth > 0 {
        opts.max_queue_depth
    } else {
        max_in_flight * 4
    };
    // The burst phase blocks followers while they hold admission slots; the
    // gate must be able to hold one whole burst or the phase deadlocks into
    // queue timeouts.
    let max_queue_depth = max_queue_depth.max(opts.burst_users);
    let queue_wait_ms = if opts.queue_wait_ms > 0 {
        opts.queue_wait_ms
    } else {
        100
    };
    let config = ServerConfig {
        max_in_flight,
        max_queue_depth,
        queue_wait: Duration::from_millis(queue_wait_ms),
        coalesce_waiters_per_key: opts.coalesce_waiters,
        ..ServerConfig::default()
    };
    let mut hub = MetricsHub::new();
    hub.section("summary").field("benchmark", "serve_load");
    hub.section("config")
        .field("users", opts.users)
        .field("rounds", opts.rounds)
        .field("scale", opts.scale.as_str())
        .field("triples", triple_count)
        .field("max_in_flight", max_in_flight)
        .field("max_queue_depth", max_queue_depth)
        .field("burst_users", opts.burst_users)
        .field("burst_rounds", opts.burst_rounds)
        .field("coalesce_waiters", opts.coalesce_waiters);
    // One shared observability handle across every phase — single-box
    // server, evented front-end, and the cluster scatter phase — so the
    // report's stage sections span all tiers.
    let obs = Arc::new(Obs::new());
    obs.set_sampling(opts.trace_sample);
    // Feed the shared executor's queue-wait samples into the same stage
    // histograms (the observer is install-once process-wide; a second
    // serve run in one process keeps the first hook, which points at a
    // dead Obs — fine for a bench binary that runs once).
    {
        let exec_obs = obs.clone();
        sapphire_core::exec::global()
            .set_queue_wait_observer(move |us| exec_obs.record(sapphire_obs::Stage::ExecQueue, us));
    }
    let server = Arc::new(SapphireServer::with_obs(pum.clone(), config, obs.clone()));

    let questions = appendix_b();
    eprintln!(
        "(driving {} users x {} rounds over {} scripted questions…)",
        opts.users,
        opts.rounds,
        questions.len()
    );

    // Load sampler: polls the cheap probes a cluster router would use to
    // route (admission load, coalescer shard occupancy) so the report makes
    // routing-relevant pressure observable, not just end-of-run counters.
    let sampler_stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let peaks = Arc::new((
        std::sync::atomic::AtomicU64::new(0), // in_flight
        std::sync::atomic::AtomicU64::new(0), // queued
        std::sync::atomic::AtomicU64::new(0), // coalesce occupancy
    ));
    let sampler = {
        let server = server.clone();
        let stop = sampler_stop.clone();
        let peaks = peaks.clone();
        std::thread::spawn(move || {
            use std::sync::atomic::Ordering;
            while !stop.load(Ordering::Relaxed) {
                let (in_flight, queued) = server.admission_load();
                peaks.0.fetch_max(in_flight as u64, Ordering::Relaxed);
                peaks.1.fetch_max(queued as u64, Ordering::Relaxed);
                peaks
                    .2
                    .fetch_max(server.coalesce_occupancy() as u64, Ordering::Relaxed);
                // 1ms resolution is enough to catch sustained pressure and
                // keeps the probe's lock traffic off the admission hot path.
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };

    let users = opts.users;
    let rounds = opts.rounds;
    let started = Instant::now();
    let (mut qcm, mut qsm) = (ClassStats::default(), ClassStats::default());
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for user in 0..users {
            let server = server.clone();
            let questions = &questions;
            handles.push(scope.spawn(move || {
                let mut qcm = ClassStats::default();
                let mut qsm = ClassStats::default();
                let session = server
                    .open_session(&format!("user-{user}"))
                    .expect("session registry sized for the fleet");
                for round in 0..rounds {
                    // Each user walks the question list from its own offset,
                    // so the mix of in-flight queries varies while the total
                    // workload stays fixed.
                    for qi in 0..questions.len() {
                        let q = &questions[(qi + user + round) % questions.len()];
                        for (row, input) in q.script.rows.iter().enumerate() {
                            // Per-keystroke QCM on the object keyword.
                            let keyword = input.object.trim_start_matches('?');
                            for end in 1..=keyword.chars().count().min(6) {
                                let prefix: String = keyword.chars().take(end).collect();
                                let t = Instant::now();
                                let r = server.complete(session, &prefix).map(|_| ());
                                qcm.record(t, &r);
                            }
                            server
                                .set_row(session, row, input.clone())
                                .expect("session owned by this thread");
                        }
                        server
                            .set_modifiers(
                                session,
                                Modifiers {
                                    distinct: false,
                                    order_by: q.script.order_by.clone(),
                                    limit: q.script.limit,
                                    count: q.script.count,
                                    filters: q.script.filters.clone(),
                                },
                            )
                            .expect("session owned by this thread");
                        let t = Instant::now();
                        let r = server.run(session).map(|_| ());
                        qsm.record(t, &r);
                    }
                }
                server.close_session(session);
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

    // --- Phase 2: duplicate burst -------------------------------------
    //
    // Every burst user fires the *same* never-seen request at the same
    // instant — the worst case for a response cache (all of them miss) and
    // the best case for single-flight. Each round uses a fresh QCM term and
    // a fresh QSM query so the cache can never help across rounds.
    let before_burst = server.metrics();
    let mut burst = ClassStats::default();
    let burst_started = Instant::now();
    let burst_ran = opts.burst_users > 1 && opts.burst_rounds > 0;
    if burst_ran {
        eprintln!(
            "(duplicate burst: {} users x {} rounds…)",
            opts.burst_users, opts.burst_rounds
        );
        let barrier = Arc::new(Barrier::new(opts.burst_users));
        let burst_rounds = opts.burst_rounds;
        let questions = &questions;
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for user in 0..opts.burst_users {
                let server = server.clone();
                let barrier = barrier.clone();
                handles.push(scope.spawn(move || {
                    let mut stats = ClassStats::default();
                    let session = server
                        .open_session(&format!("burst-{user}"))
                        .expect("session registry sized for the burst");
                    for round in 0..burst_rounds {
                        let q = &questions[round % questions.len()];
                        // Same cold term for everyone: a keyword no script
                        // types (the `~` suffix keeps it out of phase 1).
                        let keyword = q.script.rows[0].object.trim_start_matches('?');
                        let term = format!("{keyword}~{round}");
                        barrier.wait();
                        let t = Instant::now();
                        let r = server.complete(session, &term).map(|_| ());
                        stats.record(t, &r);
                        // Same cold query for everyone: scripted rows with a
                        // round-unique LIMIT, so the normalized key is shared
                        // within the round and fresh across rounds.
                        for (row, input) in q.script.rows.iter().enumerate() {
                            server
                                .set_row(session, row, input.clone())
                                .expect("session owned by this thread");
                        }
                        server
                            .set_modifiers(
                                session,
                                Modifiers {
                                    distinct: false,
                                    order_by: None,
                                    limit: Some(90_000 + round),
                                    count: false,
                                    filters: Vec::new(),
                                },
                            )
                            .expect("session owned by this thread");
                        barrier.wait();
                        let t = Instant::now();
                        let r = server.run(session).map(|_| ());
                        stats.record(t, &r);
                    }
                    server.close_session(session);
                    stats
                }));
            }
            for h in handles {
                burst.merge(h.join().expect("no burst panics"));
            }
        });
    }
    let burst_wall = burst_started.elapsed();

    sampler_stop.store(true, std::sync::atomic::Ordering::Relaxed);
    sampler.join().expect("sampler never panics");
    let (in_flight_now, queued_now) = server.admission_load();

    // --- Phase 3: cluster scatter (small sharded edge over the same data) --
    //
    // A short completion workload through a ClusterRouter sharing this run's
    // `Obs`, so the cluster-tier stages (`shard_rtt` per replica attempt,
    // `edge_merge` per top-k merge) land in the same stage sections the
    // single-box stages do. Each term is issued twice: the repeat probes the
    // edge response cache.
    if let Some(cluster) = mini_cluster {
        eprintln!(
            "(cluster scatter phase: {} shards x 1 replica…)",
            cluster.shard_count()
        );
        let router = ClusterRouter::with_obs(cluster, ClusterConfig::default(), obs.clone());
        let (mut issued, mut completed) = (0u64, 0u64);
        for question in questions.iter().take(8) {
            let keyword = question.script.rows[0].object.trim_start_matches('?');
            for _ in 0..2 {
                issued += 1;
                completed += u64::from(router.complete("edge-user", keyword).is_ok());
            }
        }
        hub.section("cluster_scatter")
            .field("requests", issued)
            .field("completed", completed);
        // The router's own `cluster` and edge-cache sections ride along.
        hub.merge(router.export_metrics());
    }

    // --- Tracing-overhead pair: the same cache-hit hot loop untraced vs
    // sampled at 1/64, in alternating chunks so scheduler drift lands on
    // both sides equally. serve_check gates the sampled/untraced ratio.
    let hot_session = server
        .open_session("trace-hot")
        .expect("session registry has room for the overhead probe");
    let hot_term: String = {
        let keyword = questions[0].script.rows[0].object.trim_start_matches('?');
        keyword.chars().take(4).collect()
    };
    let _ = server.complete(hot_session, &hot_term); // warm the response cache
    const HOT_CHUNKS: usize = 4;
    const HOT_OPS_PER_CHUNK: usize = 10_000;
    let (mut untraced, mut sampled) = (Duration::ZERO, Duration::ZERO);
    for _ in 0..HOT_CHUNKS {
        obs.set_sampling(0);
        let t = Instant::now();
        for _ in 0..HOT_OPS_PER_CHUNK {
            let _ = server.complete(hot_session, &hot_term);
        }
        untraced += t.elapsed();
        obs.set_sampling(64);
        let t = Instant::now();
        for _ in 0..HOT_OPS_PER_CHUNK {
            let _ = server.complete(hot_session, &hot_term);
        }
        sampled += t.elapsed();
    }
    obs.set_sampling(opts.trace_sample);
    server.close_session(hot_session);
    let hot_ops = (HOT_CHUNKS * HOT_OPS_PER_CHUNK) as u64;
    let hot_rps_untraced = hot_ops as f64 / untraced.as_secs_f64().max(1e-9);
    let hot_rps_sampled = hot_ops as f64 / sampled.as_secs_f64().max(1e-9);

    // --- Phase 4: evented front-end (own server over the same model) ---
    if opts.frontend_sessions > 0 {
        let mut frontend = crate::frontend::phase(
            pum,
            &crate::frontend::FrontendPhaseOptions {
                sessions: opts.frontend_sessions,
                workers: opts.frontend_workers,
                queue_wait_ms: opts.queue_wait_ms,
                ..Default::default()
            },
            Some(obs.clone()),
        );
        // That phase's server is a second `SapphireServer`: its `server` and
        // cache sections would land on the closed-loop server's below, and
        // what the gate needs from them the phase restates in `frontend`.
        frontend.retain(|s| matches!(s, "frontend" | "frontend_qcm" | "frontend_qsm"));
        hub.merge(frontend);
    }

    // --- Phase 5: medium-scale smoke (bigger-rung scatter baseline) ---
    medium_smoke_phase(opts.medium_smoke_requests, hub.section("medium_smoke"));

    // Everything below snapshots only after EVERY phase has run, so the
    // stage sections carry the front-end's `frontend_queue`/`end_to_end`
    // observations alongside the single-box and cluster-tier stages.
    let metrics = server.metrics();
    closed_loop_sections(&mut hub, wall, &qcm, &qsm);
    hub.section("summary").field(
        "rejected_total",
        qcm.rejected() + qsm.rejected() + burst.rejected(),
    );
    // The load/occupancy snapshot: peaks observed by the sampler plus the
    // end-of-run values (the latter pin "everything drained").
    hub.section("stats")
        .field(
            "peak_in_flight",
            peaks.0.load(std::sync::atomic::Ordering::Relaxed),
        )
        .field(
            "peak_queued",
            peaks.1.load(std::sync::atomic::Ordering::Relaxed),
        )
        .field(
            "peak_coalesce_occupancy",
            peaks.2.load(std::sync::atomic::Ordering::Relaxed),
        )
        .field("final_in_flight", in_flight_now)
        .field("final_queued", queued_now)
        .field("final_coalesce_occupancy", server.coalesce_occupancy());
    // Requests actually issued: zero when the phase was skipped, so the
    // report never claims traffic that did not happen.
    let burst_requests = if burst_ran {
        opts.burst_users * opts.burst_rounds * 2
    } else {
        0
    };
    let duplicate_burst = hub.section("duplicate_burst");
    duplicate_burst
        .field("requests", burst_requests)
        .field("wall_seconds", burst_wall.as_secs_f64())
        .field(
            "leader_runs",
            metrics.coalesce_leader_runs - before_burst.coalesce_leader_runs,
        )
        .field(
            "bypass_runs",
            metrics.coalesce_bypass_runs - before_burst.coalesce_bypass_runs,
        )
        .field(
            "coalesced_hits",
            metrics.coalesced_hits - before_burst.coalesced_hits,
        );
    burst.fields(burst_wall, duplicate_burst);
    // Offered vs counted: every `complete`/`run` this harness issued against
    // `server` — closed loop, duplicate burst (one of each per user per
    // round), and the tracing-overhead probe (one warm-up plus `hot_ops` on
    // each side of the pair) — beside what the server's pre-gate counted.
    // serve_check gates equality: a request counted twice or never is the
    // one thing a change to the request path can break without any answer
    // changing.
    hub.section("request_ledger")
        .field(
            "offered_qcm",
            qcm.offered() + burst.offered() / 2 + 2 * hot_ops + 1,
        )
        .field("offered_runs", qsm.offered() + burst.offered() / 2)
        .field("counted_qcm", metrics.completion_requests)
        .field("counted_runs", metrics.run_requests);
    // The server's own sections: request/rejection/coalescing counters
    // (`open_sessions` is the leaked-session count; `qsm_degraded_runs`
    // must be 0 in this no-shed posture), both response caches, the
    // model's relaxation and alternative-sweep caches, every stage.
    hub.merge(server.export_metrics());
    // `effective_hit_ratio` additionally credits single-flight followers:
    // such a request logged a genuine cache miss but was still served from
    // a concurrent identical request's scan. `(hits + coalesced) / lookups`
    // is therefore the fraction of requests served *without a model scan* —
    // the paper's >90% claim as the serving tier actually delivers it — and
    // unlike the raw ratio it does not wobble with how requests happened to
    // overlap on a given run.
    for (cache, stats, coalesced) in [
        (
            "completion_cache",
            metrics.completion_cache,
            metrics.completion_coalesced_hits,
        ),
        ("run_cache", metrics.run_cache, metrics.run_coalesced_hits),
    ] {
        let lookups = (stats.hits + stats.misses).max(1);
        hub.section(cache).field(
            "effective_hit_ratio",
            (stats.hits + coalesced) as f64 / lookups as f64,
        );
    }
    // Executor snapshot after every phase: how much scatter/scan/hedge
    // work the shared pool absorbed that per-request threads used to
    // carry. `spawns_avoided` is the headline — each one is a
    // thread::spawn the steady-state path no longer pays for.
    let exec_stats = sapphire_core::exec::global().stats();
    hub.section("exec")
        .field("workers", exec_stats.workers)
        .field("tasks_run", exec_stats.tasks_run)
        .field("inline_runs", exec_stats.inline_runs)
        .field("steals", exec_stats.steals)
        .field("spawns_avoided", exec_stats.spawns_avoided)
        .field("panicked", exec_stats.panicked)
        .field("queue_p50_us", exec_stats.queue_p50_us)
        .field("queue_p95_us", exec_stats.queue_p95_us)
        .field("queue_p99_us", exec_stats.queue_p99_us)
        .field("queue_max_us", exec_stats.queue_max_us);
    hub.section("trace")
        .field("sampling", u64::from(opts.trace_sample))
        .field("recorded", obs.recorder().recorded())
        .field("dropped", obs.recorder().evicted())
        .field("hot_ops", hot_ops)
        .field("hot_rps_untraced", hot_rps_untraced)
        .field("hot_rps_sampled", hot_rps_sampled);
    if opts.trace_sample > 0 {
        eprintln!(
            "(flight recorder: slowest end-to-end traces)\n{}",
            obs.recorder().dump_slowest(5)
        );
    }
    hub
}

/// The `medium`-scale smoke phase: the ROADMAP's bigger-rung baseline at a
/// fixed CI budget.
///
/// Builds a 4-shard (1 replica) edge over the `medium` dataset and drives
/// `requests` **cold** completion scatters through it from 4 client
/// threads. Every term is salted unique, so every request misses every
/// cache and pays the full 4-way scatter on the shared executor.
///
/// The full `medium` workload is deliberately NOT run here: a single
/// Appendix-B QSM question at `medium` can relax for minutes, which no CI
/// budget survives — that is exactly why the committed baseline stayed
/// `tiny` until now.
fn medium_smoke_phase(requests: usize, section: &mut Section) {
    section.field("requests", requests);
    if requests == 0 {
        return;
    }
    eprintln!("(medium smoke: generating dataset + initializing 4 shard models…)");
    let bringup_clock = Instant::now();
    let graph = generate(dataset_for("medium"));
    let triples = graph.len();
    let cluster = Cluster::build(
        "medium-edge",
        &graph,
        4,
        1,
        &Lexicon::dbpedia_default(),
        &experiment_config(),
        &ServerConfig::default(),
    )
    .expect("medium shard initialization");
    drop(graph);
    let bringup_us = bringup_clock.elapsed().as_micros() as u64;
    let router = ClusterRouter::new(cluster, ClusterConfig::default());

    // Real workload prefixes, salted with a sequence number so no term
    // repeats — cold at the edge caches AND the shard caches.
    let mut base: Vec<String> = Vec::new();
    for question in appendix_b() {
        for input in &question.script.rows {
            let keyword = input.object.trim_start_matches('?');
            for end in 1..=keyword.chars().count().min(6) {
                base.push(keyword.chars().take(end).collect());
            }
        }
    }
    let terms: Vec<String> = (0..requests)
        .map(|i| format!("{}~{i}", base[i % base.len()]))
        .collect();

    eprintln!("(medium smoke: {requests} cold scatters, 4-way fan-out…)");
    let workers = 4.min(terms.len());
    let started = Instant::now();
    let mut stats = ClassStats::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (router, terms) = (&router, &terms);
                scope.spawn(move || {
                    let mut s = ClassStats::default();
                    for term in terms.iter().skip(w).step_by(workers) {
                        let t = Instant::now();
                        let r = router.complete("smoke", term).map(|_| ());
                        s.record(t, &crate::cluster::flatten(r));
                    }
                    s
                })
            })
            .collect();
        for h in handles {
            stats.merge(h.join().expect("no smoke worker panics"));
        }
    });
    let wall = started.elapsed();

    section
        .field("scale", "medium")
        .field("shards", 4u64)
        .field("replicas", 1u64)
        .field("triples", triples)
        .field("bringup_us", bringup_us)
        .field(
            "fanout_total",
            router.metrics().fanout_per_shard.iter().sum::<u64>(),
        );
    stats.fields(wall, section);
}

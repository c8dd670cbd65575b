//! The `serve_load` harness as a library.
//!
//! The closed-loop load generator used to live entirely inside the
//! `serve_load` binary; it is a library module so the CI regression gate
//! (`serve_check`) can drive the *same* workload in-process and validate the
//! same JSON report it would have eyeballed — one workload definition, two
//! consumers.
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
//! The JSON report is assembled by hand (the build has no serde); the
//! [`json_f64`] helper on the parsing side is matched to exactly this shape.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use sapphire_cluster::{Cluster, ClusterConfig, ClusterRouter};
use sapphire_core::prelude::*;
use sapphire_core::session::Modifiers;
use sapphire_core::InitMode;
use sapphire_datagen::generate;
use sapphire_datagen::workload::appendix_b;
use sapphire_obs::Obs;
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
    /// reported as the `"frontend"` section; `0` skips the phase).
    pub frontend_sessions: usize,
    /// Worker threads of the front-end phase.
    pub frontend_workers: usize,
    /// Trace one request in N through the shared flight recorder (`0` = off,
    /// the default — histograms stay on either way). `--trace` sets 1.
    pub trace_sample: u32,
    /// Shards of the embedded cluster scatter phase (1 replica each), which
    /// populates the cluster-tier stages (`shard_rtt`, `edge_merge`) in the
    /// same shared `"stages"` section; `0` skips the phase.
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

/// `--name N` from argv, or `default` — shared by the `serve_load` and
/// `serve_check` binaries so flag parsing can only ever change in one place.
pub fn arg_usize(name: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// `--name VALUE` from argv, if present.
pub fn arg_string(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
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

    pub(crate) fn json(&self, wall: Duration) -> String {
        let mut sorted = self.latencies_us.clone();
        sorted.sort_unstable();
        let count = sorted.len();
        let throughput = count as f64 / wall.as_secs_f64().max(1e-9);
        format!(
            "{{\"completed\": {count}, \"throughput_rps\": {throughput:.1}, \
             \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}, \
             \"rejected_overloaded\": {}, \"rejected_queue_timeout\": {}, \
             \"rejected_quota\": {}, \"invalid\": {}}}",
            self.percentile(&sorted, 50.0),
            self.percentile(&sorted, 95.0),
            self.percentile(&sorted, 99.0),
            self.overloaded,
            self.queue_timeout,
            self.quota,
            self.invalid
        )
    }
}

/// Run the full workload and return the JSON report.
///
/// Does **not** write `BENCH_serve.json` — persisting the baseline is the
/// `serve_load` binary's job; the CI gate runs the same workload without
/// clobbering the committed reference.
pub fn run(opts: &ServeLoadOptions) -> String {
    // `dataset_for` hard-errors on unknown names, so the label is always
    // exactly what ran.
    let scale_label = opts.scale.clone();
    let dataset = dataset_for(&scale_label);

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
    // One shared observability handle across every phase — single-box
    // server, evented front-end, and the cluster scatter phase — so the
    // report's `"stages"` section spans all tiers.
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
    // `edge_merge` per top-k merge) land in the same `"stages"` section the
    // single-box stages do. Each term is issued twice: the repeat probes the
    // edge response cache.
    let cluster_section = match mini_cluster {
        None => "{\"shards\": 0, \"requests\": 0, \"fanout_total\": 0, \"merges\": 0}".to_string(),
        Some(cluster) => {
            let shards = cluster.shard_count();
            eprintln!("(cluster scatter phase: {shards} shards x 1 replica…)");
            let router = ClusterRouter::with_obs(cluster, ClusterConfig::default(), obs.clone());
            let (mut issued, mut completed) = (0u64, 0u64);
            for question in questions.iter().take(8) {
                let keyword = question.script.rows[0].object.trim_start_matches('?');
                for _ in 0..2 {
                    issued += 1;
                    completed += u64::from(router.complete("edge-user", keyword).is_ok());
                }
            }
            let m = router.metrics();
            format!(
                "{{\"shards\": {shards}, \"requests\": {issued}, \"completed\": {completed}, \
                 \"fanout_total\": {}, \"merges\": {}, \"edge_cache_hits\": {}}}",
                m.fanout_per_shard.iter().sum::<u64>(),
                m.merges,
                m.completion_cache.hits,
            )
        }
    };

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

    let metrics = server.metrics();
    // `effective_hit_ratio` additionally credits single-flight followers:
    // such a request logged a genuine cache miss but was still served from
    // a concurrent identical request's scan. `(hits + coalesced) / lookups`
    // is therefore the fraction of requests served *without a model scan* —
    // the paper's >90% claim as the serving tier actually delivers it — and
    // unlike the raw ratio it does not wobble with how requests happened to
    // overlap on a given run.
    let cache_stats = |s: sapphire_core::CacheStats, coalesced: u64| {
        let lookups = (s.hits + s.misses).max(1);
        format!(
            "{{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \"hit_ratio\": {:.3}, \
             \"effective_hit_ratio\": {:.3}}}",
            s.hits,
            s.misses,
            s.evictions,
            s.hit_ratio(),
            (s.hits + coalesced) as f64 / lookups as f64,
        )
    };
    // Requests actually issued: zero when the phase was skipped, so the
    // report never claims traffic that did not happen.
    let burst_requests = if burst_ran {
        (opts.burst_users * opts.burst_rounds * 2) as u64
    } else {
        0
    };
    // The load/occupancy snapshot: peaks observed by the sampler plus the
    // end-of-run values (the latter pin "everything drained"). This section
    // must stay *ahead of* `duplicate_burst` in the report: that section
    // nests its own `"stats"` object, and `json_f64`'s section search finds
    // the first occurrence.
    let stats = format!(
        "{{\"peak_in_flight\": {}, \"peak_queued\": {}, \"peak_coalesce_occupancy\": {}, \
         \"final_in_flight\": {in_flight_now}, \"final_queued\": {queued_now}, \
         \"final_coalesce_occupancy\": {}}}",
        peaks.0.load(std::sync::atomic::Ordering::Relaxed),
        peaks.1.load(std::sync::atomic::Ordering::Relaxed),
        peaks.2.load(std::sync::atomic::Ordering::Relaxed),
        server.coalesce_occupancy(),
    );
    // The QSM-tail section: how the Steiner expansion budget was actually
    // spent. `expansion_queries` are SPARQL round trips executed,
    // `queries_saved` are round trips skipped because the neighbor list was
    // already in the shared cross-request NeighborhoodCache (budget still
    // charged — determinism), `degraded_runs` counts reduced-budget runs
    // (must be 0 in this default no-shed posture; serve_check gates it).
    let relax = pum.relax_cache_stats();
    // The memoized alternative-sweep caches ride along: a hit is a whole
    // Jaro-Winkler corpus sweep skipped, the other lever (besides the
    // NeighborhoodCache) that keeps the QSM tail down.
    let alt = pum.alt_cache_stats();
    let qsm_relax = format!(
        "{{\"expansion_queries\": {}, \"queries_saved\": {}, \"neighborhood_hits\": {}, \
         \"neighborhood_misses\": {}, \"neighborhood_fills\": {}, \
         \"neighborhood_evictions\": {}, \"degraded_runs\": {}, \
         \"alt_literal_hits\": {}, \"alt_literal_misses\": {}, \"alt_literal_evictions\": {}, \
         \"alt_predicate_hits\": {}, \"alt_predicate_misses\": {}, \
         \"alt_predicate_evictions\": {}}}",
        relax.queries_executed,
        relax.queries_saved,
        relax.hits,
        relax.misses,
        relax.fills,
        relax.evictions,
        metrics.qsm_degraded_runs,
        alt.literal.hits,
        alt.literal.misses,
        alt.literal.evictions,
        alt.predicate.hits,
        alt.predicate.misses,
        alt.predicate.evictions,
    );
    // Offered vs counted: every `complete`/`run` this harness issued against
    // `server` — closed loop, duplicate burst (one of each per user per
    // round), and the tracing-overhead probe (one warm-up plus `hot_ops` on
    // each side of the pair) — beside what the server's pre-gate counted.
    // serve_check gates equality: a request counted twice or never is the
    // one thing a change to the request path can break without any answer
    // changing.
    let request_ledger = format!(
        "{{\"offered_qcm\": {}, \"offered_runs\": {}, \"counted_qcm\": {}, \
         \"counted_runs\": {}}}",
        qcm.offered() + burst.offered() / 2 + 2 * hot_ops + 1,
        qsm.offered() + burst.offered() / 2,
        metrics.completion_requests,
        metrics.run_requests,
    );
    let mut report = format!(
        "{{\n  \"benchmark\": \"serve_load\",\n  \"config\": {{\"users\": {users}, \
         \"rounds\": {rounds}, \"scale\": \"{scale_label}\", \"triples\": {triple_count}, \
         \"max_in_flight\": {max_in_flight}, \"max_queue_depth\": {max_queue_depth}, \
         \"burst_users\": {}, \"burst_rounds\": {}, \"coalesce_waiters\": {}}},\n  \
         \"stats\": {stats},\n  \
         \"wall_seconds\": {:.3},\n  \"total_throughput_rps\": {:.1},\n  \
         \"qcm\": {},\n  \"qsm\": {},\n  \
         \"duplicate_burst\": {{\"requests\": {burst_requests}, \"wall_seconds\": {:.3}, \
         \"leader_runs\": {}, \"bypass_runs\": {}, \"coalesced_hits\": {}, \"stats\": {}}},\n  \
         \"coalescing\": {{\"coalesced_hits\": {}, \"leader_runs\": {}, \"bypass_runs\": {}, \
         \"fifo_handoffs\": {}}},\n  \
         \"qsm_relax\": {qsm_relax},\n  \
         \"request_ledger\": {request_ledger},\n  \
         \"rejected_total\": {},\n  \
         \"completion_cache\": {},\n  \"run_cache\": {},\n  \
         \"sessions_leaked\": {}\n}}",
        opts.burst_users,
        opts.burst_rounds,
        opts.coalesce_waiters,
        wall.as_secs_f64(),
        (qcm.latencies_us.len() + qsm.latencies_us.len()) as f64 / wall.as_secs_f64().max(1e-9),
        qcm.json(wall),
        qsm.json(wall),
        burst_wall.as_secs_f64(),
        metrics.coalesce_leader_runs - before_burst.coalesce_leader_runs,
        metrics.coalesce_bypass_runs - before_burst.coalesce_bypass_runs,
        metrics.coalesced_hits - before_burst.coalesced_hits,
        burst.json(burst_wall),
        metrics.coalesced_hits,
        metrics.coalesce_leader_runs,
        metrics.coalesce_bypass_runs,
        metrics.fifo_handoffs,
        qcm.rejected() + qsm.rejected() + burst.rejected(),
        cache_stats(metrics.completion_cache, metrics.completion_coalesced_hits),
        cache_stats(metrics.run_cache, metrics.run_coalesced_hits),
        metrics.open_sessions,
    );

    // --- Phase 4: evented front-end (own server over the same model) ---
    let frontend_section = (opts.frontend_sessions > 0).then(|| {
        crate::frontend::phase(
            pum,
            &crate::frontend::FrontendPhaseOptions {
                sessions: opts.frontend_sessions,
                workers: opts.frontend_workers,
                queue_wait_ms: opts.queue_wait_ms,
                ..Default::default()
            },
            Some(obs.clone()),
        )
    });

    // --- Phase 5: medium-scale smoke (bigger-rung scatter baseline) ---
    let medium_smoke_section = medium_smoke_phase(opts.medium_smoke_requests);

    // The cross-tier sections snapshot only after EVERY phase has run, so
    // `"stages"` carries the front-end's `frontend_queue`/`end_to_end`
    // observations alongside the single-box and cluster-tier stages.
    let trace_section = format!(
        "{{\"sampling\": {}, \"recorded\": {}, \"dropped\": {}, \"hot_ops\": {hot_ops}, \
         \"hot_rps_untraced\": {hot_rps_untraced:.1}, \"hot_rps_sampled\": {hot_rps_sampled:.1}}}",
        opts.trace_sample,
        obs.recorder().recorded(),
        obs.recorder().evicted(),
    );
    let cut = report.rfind('}').expect("report ends with a brace");
    report.truncate(cut);
    while report.ends_with(char::is_whitespace) {
        report.pop();
    }
    // Executor snapshot after every phase: how much scatter/scan/hedge
    // work the shared pool absorbed that per-request threads used to
    // carry. `spawns_avoided` is the headline — each one is a
    // thread::spawn the steady-state path no longer pays for.
    let exec_stats = sapphire_core::exec::global().stats();
    let exec_section = format!(
        "{{\"workers\": {}, \"tasks_run\": {}, \"inline_runs\": {}, \"steals\": {}, \
         \"spawns_avoided\": {}, \"panicked\": {}, \"queue_p50_us\": {}, \
         \"queue_p95_us\": {}, \"queue_p99_us\": {}, \"queue_max_us\": {}}}",
        exec_stats.workers,
        exec_stats.tasks_run,
        exec_stats.inline_runs,
        exec_stats.steals,
        exec_stats.spawns_avoided,
        exec_stats.panicked,
        exec_stats.queue_p50_us,
        exec_stats.queue_p95_us,
        exec_stats.queue_p99_us,
        exec_stats.queue_max_us,
    );
    report.push_str(&format!(
        ",\n  \"cluster_scatter\": {cluster_section},\n  \"exec\": {exec_section},\n  \
         \"medium_smoke\": {medium_smoke_section},\n  \
         \"stages\": {},\n  \"trace\": {trace_section}",
        obs.stages_json(),
    ));
    // The front-end section stays LAST: its object nests keys that also
    // exist at the top level (`rejected_total`, `sessions_leaked`, `qcm`…),
    // and `json_f64`'s section/key searches resolve to the *first*
    // occurrence — everything above must win unsectioned reads.
    if let Some(section) = frontend_section {
        report.push_str(&format!(",\n  \"frontend\": {section}"));
    }
    report.push_str("\n}");
    if opts.trace_sample > 0 {
        eprintln!(
            "(flight recorder: slowest end-to-end traces)\n{}",
            obs.recorder().dump_slowest(5)
        );
    }
    report
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
fn medium_smoke_phase(requests: usize) -> String {
    if requests == 0 {
        return "{\"requests\": 0}".to_string();
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

    let fanout_total: u64 = router.metrics().fanout_per_shard.iter().sum();
    format!(
        "{{\"scale\": \"medium\", \"shards\": 4, \"replicas\": 1, \"triples\": {triples}, \
         \"bringup_us\": {bringup_us}, \"requests\": {requests}, \
         \"fanout_total\": {fanout_total}, \"scatter\": {}}}",
        stats.json(wall),
    )
}

/// Pull a numeric field out of a `serve_load` JSON report.
///
/// `section` of `None` searches the whole report; `Some(name)` restricts the
/// search to the whole `{...}` object that follows `"name"`, nested objects
/// included (braces are depth-matched, so a section like `duplicate_burst`
/// that carries an inner `"stats": {...}` is covered wherever the inner
/// object sits). This is not a JSON parser — the build is offline and has no
/// serde — but it is exact for the report shape [`run`] emits, and the tests
/// below pin that shape, nested objects included.
pub fn json_f64(report: &str, section: Option<&str>, key: &str) -> Option<f64> {
    let haystack = match section {
        None => report,
        Some(name) => {
            let at = report.find(&format!("\"{name}\""))?;
            let open = at + report[at..].find('{')?;
            let mut depth = 0usize;
            let close = report[open..].char_indices().find_map(|(i, c)| match c {
                '{' => {
                    depth += 1;
                    None
                }
                '}' => {
                    depth -= 1;
                    (depth == 0).then_some(open + i)
                }
                _ => None,
            })?;
            &report[open..close]
        }
    };
    let at = haystack.find(&format!("\"{key}\""))?;
    let colon = at + haystack[at..].find(':')?;
    let value: String = haystack[colon + 1..]
        .chars()
        .skip_while(|c| c.is_whitespace())
        .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
        .collect();
    value.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Mirrors the real report's structural hazards: duplicate_burst carries
    // a *nested* object, here deliberately placed BEFORE the scalar fields
    // so the extraction is proven to depth-match rather than stop at the
    // first closing brace.
    const REPORT: &str = r#"{
  "benchmark": "serve_load",
  "config": {"users": 32, "rounds": 1},
  "stats": {"peak_in_flight": 8, "peak_queued": 3, "peak_coalesce_occupancy": 2, "final_in_flight": 0, "final_queued": 0, "final_coalesce_occupancy": 0},
  "total_throughput_rps": 36948.1,
  "qcm": {"completed": 26304, "p50_us": 370},
  "qsm": {"completed": 2592, "p50_us": 521},
  "duplicate_burst": {"requests": 256, "stats": {"completed": 256, "p50_us": 24}, "leader_runs": 16, "bypass_runs": 0, "coalesced_hits": 240},
  "qsm_relax": {"expansion_queries": 4199, "queries_saved": 10260, "neighborhood_hits": 5130, "neighborhood_misses": 2887, "neighborhood_fills": 2887, "neighborhood_evictions": 0, "degraded_runs": 0, "alt_literal_hits": 3120, "alt_literal_misses": 84, "alt_literal_evictions": 0, "alt_predicate_hits": 2960, "alt_predicate_misses": 61, "alt_predicate_evictions": 0},
  "rejected_total": 0,
  "completion_cache": {"hits": 26113, "misses": 191, "hit_ratio": 0.993, "effective_hit_ratio": 0.996},
  "run_cache": {"hits": 2490, "misses": 102, "hit_ratio": 0.961, "effective_hit_ratio": 0.978},
  "sessions_leaked": 0,
  "cluster_scatter": {"shards": 2, "requests": 16, "completed": 16, "fanout_total": 16, "merges": 8, "edge_cache_hits": 8},
  "stages": {"admission_wait": {"count": 28896, "p50_us": 1, "p95_us": 3, "p99_us": 7, "max_us": 120}, "qcm_scan": {"count": 207, "p50_us": 255, "p95_us": 511, "p99_us": 1023, "max_us": 980}, "end_to_end": {"count": 28896, "p50_us": 380, "p95_us": 2047, "p99_us": 4095, "max_us": 9100}},
  "trace": {"sampling": 0, "recorded": 625, "dropped": 0, "hot_ops": 40000, "hot_rps_untraced": 412345.1, "hot_rps_sampled": 401234.9}
}"#;

    #[test]
    fn json_f64_reads_top_level_and_sectioned_fields() {
        assert_eq!(
            json_f64(REPORT, None, "total_throughput_rps"),
            Some(36948.1)
        );
        assert_eq!(json_f64(REPORT, None, "rejected_total"), Some(0.0));
        assert_eq!(json_f64(REPORT, None, "sessions_leaked"), Some(0.0));
        assert_eq!(
            json_f64(REPORT, Some("completion_cache"), "hit_ratio"),
            Some(0.993)
        );
        assert_eq!(
            json_f64(REPORT, Some("run_cache"), "hit_ratio"),
            Some(0.961)
        );
        assert_eq!(
            json_f64(REPORT, Some("run_cache"), "effective_hit_ratio"),
            Some(0.978)
        );
        // These two sit *after* the nested "stats" object — the reads that
        // serve_check's burst gate depends on.
        assert_eq!(
            json_f64(REPORT, Some("duplicate_burst"), "leader_runs"),
            Some(16.0)
        );
        assert_eq!(
            json_f64(REPORT, Some("duplicate_burst"), "bypass_runs"),
            Some(0.0)
        );
        assert_eq!(json_f64(REPORT, Some("qcm"), "completed"), Some(26304.0));
        // The QSM-tail section the serve_check gates read. "qsm_relax" must
        // not be shadowed by the "qsm" section search (the quoted-key match
        // is exact) and vice versa.
        assert_eq!(
            json_f64(REPORT, Some("qsm_relax"), "degraded_runs"),
            Some(0.0)
        );
        assert_eq!(
            json_f64(REPORT, Some("qsm_relax"), "queries_saved"),
            Some(10260.0)
        );
        assert_eq!(json_f64(REPORT, Some("qsm"), "p50_us"), Some(521.0));
    }

    #[test]
    fn json_f64_reads_the_observability_sections() {
        // Satellite counters of the QSM tail: the alternative-sweep caches.
        assert_eq!(
            json_f64(REPORT, Some("qsm_relax"), "alt_literal_hits"),
            Some(3120.0)
        );
        assert_eq!(
            json_f64(REPORT, Some("qsm_relax"), "alt_predicate_misses"),
            Some(61.0)
        );
        // Per-stage sections live inside the nested "stages" object; the
        // quoted-key search must reach them and must not confuse
        // "qcm_scan" with the "qcm" class section (or vice versa).
        assert_eq!(json_f64(REPORT, Some("qcm_scan"), "p99_us"), Some(1023.0));
        assert_eq!(json_f64(REPORT, Some("end_to_end"), "max_us"), Some(9100.0));
        assert_eq!(json_f64(REPORT, Some("qcm"), "completed"), Some(26304.0));
        assert_eq!(
            json_f64(REPORT, Some("admission_wait"), "count"),
            Some(28896.0)
        );
        // The tracing gates' reads.
        assert_eq!(json_f64(REPORT, Some("trace"), "dropped"), Some(0.0));
        assert_eq!(
            json_f64(REPORT, Some("trace"), "hot_rps_sampled"),
            Some(401234.9)
        );
        assert_eq!(
            json_f64(REPORT, Some("cluster_scatter"), "fanout_total"),
            Some(16.0)
        );
        // "stats" and "stages" must not shadow each other.
        assert_eq!(json_f64(REPORT, Some("stats"), "peak_in_flight"), Some(8.0));
    }

    #[test]
    fn json_f64_reads_the_top_level_stats_section_not_the_burst_one() {
        // `duplicate_burst` nests its own `"stats"` object; the load/occupancy
        // section must sit earlier in the report so the first-occurrence
        // section search resolves to it.
        assert_eq!(json_f64(REPORT, Some("stats"), "peak_in_flight"), Some(8.0));
        assert_eq!(json_f64(REPORT, Some("stats"), "peak_queued"), Some(3.0));
        assert_eq!(
            json_f64(REPORT, Some("stats"), "peak_coalesce_occupancy"),
            Some(2.0)
        );
        assert_eq!(json_f64(REPORT, Some("stats"), "final_queued"), Some(0.0));
        // The burst's nested stats are still reachable through their parent.
        assert_eq!(
            json_f64(REPORT, Some("duplicate_burst"), "completed"),
            Some(256.0)
        );
    }

    #[test]
    fn json_f64_is_none_for_missing_fields() {
        assert_eq!(json_f64(REPORT, None, "no_such_key"), None);
        assert_eq!(json_f64(REPORT, Some("no_such_section"), "hits"), None);
        // A key outside the requested section must not leak in.
        assert_eq!(json_f64(REPORT, Some("qcm"), "hit_ratio"), None);
    }
}

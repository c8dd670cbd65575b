//! The edge router: scatter-gather over shard replicas with load-aware,
//! hedged, typed-retry routing.
//!
//! A [`ClusterRouter`] is the tier users talk to. For every request it
//! *scatters* one stateless [`WireRequest`] to each shard (picking the replica
//! with the lowest [`admission_load`](sapphire_server::SapphireServer::admission_load)),
//! *gathers* the per-shard answers, and *merges* them with the deterministic
//! score-then-key merges of [`crate::merge`] — so the cluster's answers are a
//! pure function of the data, never of replica timing. Every replica answers
//! through [`ShardService::call`], in process or over a socket, and a reply
//! of the wrong kind is a typed `protocol:` failure of its shard, never a
//! shorter answer. The routing policy around each shard call:
//!
//! * **Load-aware replica choice** — replicas are tried in ascending
//!   admission-load order, so a saturated replica is naturally deprioritized
//!   whenever a healthier sibling exists.
//! * **Hedging** — if the chosen replica has not answered within the hedge
//!   budget, the same request is fired at the next replica and the first
//!   reply wins ([`ClusterMetrics::hedges_fired`]/[`hedges_won`](ClusterMetrics::hedges_won)).
//! * **Typed bounded retry** — typed back-pressure rejections
//!   ([`ServerError::Overloaded`]/[`ServerError::QueueTimeout`]) fail over to
//!   the next replica under the shared [`Backoff`] policy (honoring the
//!   rejection's retry-after hint); anything else is a real error and
//!   surfaces immediately. Only when every attempt is shed does the router
//!   give up, with [`ClusterError::ShardUnavailable`].
//!
//! There is one such policy and every shard call takes it: a scatter arm, a
//! targeted call, and each probe and sub-query of a cross-shard bound join
//! (the federated processor sees each shard as an endpoint whose every
//! query is one routed shard call). So every call is counted in
//! [`ClusterMetrics::fanout_per_shard`], observed in the `shard_rtt`
//! histogram and, in a sampled request, spanned under it — the fan-out
//! total is the `shard_rtt` count plus the hedges fired.
//!
//! A shard call reads one `Arc`-shared value: the replicas, the
//! configuration, the counters and the edge's `Obs`. So each scatter arm
//! and each hedged replica call is an ordinary `'static` executor task that
//! owns what it touches, and each enters its request's trace context and
//! request mark on whatever worker runs it: the shard server's spans land
//! under the call's `shard_rtt` span, and an in-process replica never counts
//! a request of its own.
//!
//! The edge is itself a serving tier: QCM/QSM responses are memoized in
//! sharded response caches and identical in-flight requests are
//! single-flighted through the same [`ReadThrough`] front the servers use,
//! keyed by the same normalized request keys — so coalescing composes across
//! tiers exactly as the PR-2 design intended.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use sapphire_core::exec;
use sapphire_core::qcm::Completion;
use sapphire_core::qsm::{top_with_answers, AlteredPosition, StructureSuggestion, TermAlternative};
use sapphire_core::{CacheStats, RequestKey, SteinerConfig};
use sapphire_endpoint::{Backoff, Endpoint, EndpointError, FederatedProcessor, FederationError};
use sapphire_obs::{trace, MetricsHub, Obs, RequestMark, Stage, TraceScope};
use sapphire_server::coalesce::{ReadThrough, Served};
use sapphire_server::{ServerError, ShardService, TransportStats, WireReply, WireRequest};
use sapphire_sparql::{Projection, Query, QueryResult, SelectQuery, Solutions, TermPattern};

use crate::merge::{dedup_alternatives, merge_bindings, merge_completions, sort_alternatives};
use crate::topology::Cluster;

/// Tuning knobs of a [`ClusterRouter`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Fire the same request at a second replica when the first has not
    /// answered within this budget; `None` disables hedging.
    pub hedge_after: Option<Duration>,
    /// Hedged secondary calls allowed to be in flight at once, router-wide.
    /// Every losing hedge keeps running until its scan completes — pinning
    /// one admission slot on its replica the whole time — so without a cap
    /// a sustained storm of slow primaries accumulates losers without
    /// bound. At the cap, further hedges are *suppressed* (counted in
    /// [`ClusterMetrics::hedges_suppressed`]) and the call simply waits for
    /// its primary. `0` suppresses every hedge (hedging stays configured
    /// but never fires — useful to quantify it).
    pub max_inflight_hedges: usize,
    /// Retry policy for typed back-pressure rejections; each retry fails
    /// over to the next replica in load order.
    pub backoff: Backoff,
    /// Edge response-cache shards.
    pub cache_shards: usize,
    /// LRU capacity per edge response-cache shard.
    pub cache_capacity_per_shard: usize,
    /// Router-driven degradation: when set, the edge *requests* a QSM shed
    /// tier from shards (chosen from shard queue pressure and the remaining
    /// deadline budget) and propagates the remaining budget on every run
    /// scatter hop. `None` (the default) keeps the PR-5 posture: shards may
    /// still shed locally behind their own
    /// [`qsm_shed_budget`](sapphire_server::ServerConfig::qsm_shed_budget)
    /// opt-in, but the edge never asks for degradation and never caches a
    /// degraded merge.
    pub degrade: Option<DegradePolicy>,
}

/// When and how hard the edge requests QSM degradation from shards — the
/// cluster-wide half of the shed ladder
/// ([`SteinerConfig::SHED_BUDGETS`]).
///
/// The edge picks the requested tier *before* any cache or coalescer
/// lookup, from two signals, and takes the deeper of the two (clamped to
/// [`SteinerConfig::MAX_TIER`]):
///
/// * **Queue pressure** — for each shard, the pressure tier of its
///   *least-loaded* replica (the one load-aware routing will pick; see
///   [`SapphireServer::shed_pressure_tier`](sapphire_server::SapphireServer::shed_pressure_tier)), maxed across shards: a
///   scatter is only as healthy as its most backed-up shard.
/// * **Remaining deadline** — with more than half of
///   [`deadline`](Self::deadline) left the deadline argues for tier 0, above a
///   quarter tier 1, below that tier 2: a request that has already burned
///   most of its budget should not commission full-depth relaxation work
///   nobody will wait for.
///
/// The requested tier keys the edge cache and coalescer
/// ([`sapphire_core::RequestKey::run`]), so tier-0 and tier-N
/// requests can never exchange payloads, and shards honor the request
/// through the same tier-keyed discipline
/// ([`SapphireServer::run_select_tiered`](sapphire_server::SapphireServer::run_select_tiered)).
#[derive(Debug, Clone)]
pub struct DegradePolicy {
    /// Per-request deadline budget at the edge. The *remaining* budget is
    /// recomputed before each run scatter hop and propagated to shards,
    /// where it caps admission-queue waits and stops the retry loop — a
    /// hop with no budget left fails fast and typed instead of queueing.
    pub deadline: Duration,
}

impl Default for DegradePolicy {
    fn default() -> Self {
        DegradePolicy {
            deadline: Duration::from_millis(250),
        }
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            hedge_after: Some(Duration::from_millis(50)),
            max_inflight_hedges: 32,
            backoff: Backoff::default(),
            cache_shards: 16,
            cache_capacity_per_shard: 4096,
            degrade: None,
        }
    }
}

impl ClusterConfig {
    /// A small configuration for unit tests.
    pub fn for_tests() -> Self {
        ClusterConfig {
            cache_shards: 4,
            cache_capacity_per_shard: 64,
            ..Self::default()
        }
    }
}

/// Typed failures of the cluster tier.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// Every replica of `shard` shed the request, through every retry of the
    /// backoff budget — the shard is saturated, not broken.
    ShardUnavailable {
        /// The saturated shard.
        shard: usize,
        /// The last typed rejection observed.
        last: ServerError,
    },
    /// A shard failed with a non-retryable error.
    Shard {
        /// The failing shard.
        shard: usize,
        /// Its typed error.
        error: ServerError,
    },
    /// A cross-shard federated plan (bound join over every shard) failed;
    /// no single shard can be blamed, but the typed error is preserved.
    CrossShard {
        /// The typed failure of the federated plan.
        error: ServerError,
    },
    /// The evaluator cannot answer the query over the merged bindings (e.g.
    /// a projected variable neither grouped nor aggregated).
    Unsupported(String),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::ShardUnavailable { shard, last } => {
                write!(f, "shard {shard} unavailable after retries: {last}")
            }
            ClusterError::Shard { shard, error } => write!(f, "shard {shard} failed: {error}"),
            ClusterError::CrossShard { error } => {
                write!(f, "cross-shard federated plan failed: {error}")
            }
            ClusterError::Unsupported(m) => write!(f, "unsupported cluster query: {m}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl ClusterError {
    /// True for back-pressure outcomes a client may retry later.
    pub fn is_rejection(&self) -> bool {
        match self {
            ClusterError::ShardUnavailable { .. } => true,
            ClusterError::Shard { error, .. } | ClusterError::CrossShard { error } => {
                error.is_rejection()
            }
            ClusterError::Unsupported(_) => false,
        }
    }
}

/// A cluster QCM answer.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterCompletion {
    /// The merged top-k suggestions, in canonical order.
    pub suggestions: Vec<Completion>,
    /// Shard answer lists merged for this payload (1 for targeted routing).
    pub merge_depth: usize,
    /// True if this request was served without its own scatter (edge cache
    /// hit or edge single-flight follower).
    pub cached: bool,
}

/// A cluster QSM run answer: a shared pointer to the merged payload plus
/// this request's own `cached` flag. [`Deref`](std::ops::Deref)s to the
/// payload, so `run.answers` etc. read naturally; an edge cache hit is a
/// pointer bump, never a deep copy of answer sets — the same discipline the
/// shard tier's `QueryRun` follows.
#[derive(Debug, Clone)]
pub struct ClusterRun {
    /// True if this request was served without its own scatter (edge cache
    /// hit or edge single-flight follower).
    pub cached: bool,
    /// The merged payload, shared with the edge cache.
    pub payload: Arc<ClusterRunPayload>,
}

impl std::ops::Deref for ClusterRun {
    type Target = ClusterRunPayload;

    fn deref(&self) -> &ClusterRunPayload {
        &self.payload
    }
}

/// The merged, cacheable part of a cluster run (everything but the
/// per-request `cached` flag).
#[derive(Debug)]
pub struct ClusterRunPayload {
    /// The merged answers, in canonical order, with the query's slice
    /// applied at the edge.
    pub answers: Solutions,
    /// True if every shard executed the query.
    pub executed: bool,
    /// Merged "did you mean" rewrites, each with its *cluster-wide*
    /// prefetched answers.
    pub alternatives: Vec<TermAlternative>,
    /// Merged structure relaxations (shard-local Steiner searches; see the
    /// crate docs for the cross-shard caveat), prefetched cluster-wide.
    pub relaxations: Vec<StructureSuggestion>,
    /// The highest QSM budget tier any consulted shard ran at (0 = every
    /// shard relaxed at the full budget).
    pub tier: usize,
    /// True when any shard produced its suggestions at a reduced budget
    /// ([`tier`](Self::tier) > 0). Such a merge is cached only under the
    /// tier the edge requested, and never when a shard shed *deeper* than
    /// requested (see `run_tiered`) — so it can never be served to a
    /// full-budget request.
    pub degraded: bool,
}

/// What the edge completion cache stores.
#[derive(Debug)]
struct MergedCompletion {
    suggestions: Vec<Completion>,
    merge_depth: usize,
}

impl MergedCompletion {
    fn to_completion(&self, cached: bool) -> ClusterCompletion {
        ClusterCompletion {
            suggestions: self.suggestions.clone(),
            merge_depth: self.merge_depth,
            cached,
        }
    }
}

/// Point-in-time router observability snapshot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterMetrics {
    /// Shard calls issued, per shard: scatter fan-out, targeted calls and
    /// the probes and sub-queries of cross-shard bound joins, retries and
    /// hedges included.
    pub fanout_per_shard: Vec<u64>,
    /// Hedge requests fired (primary exceeded the hedge budget).
    pub hedges_fired: u64,
    /// Hedge requests whose reply won the race.
    pub hedges_won: u64,
    /// Hedges *not* fired because the in-flight hedge cap
    /// ([`ClusterConfig::max_inflight_hedges`]) was reached — the slow
    /// primary was simply waited for instead.
    pub hedges_suppressed: u64,
    /// Replica attempts that were shed typed and retried on another replica.
    pub replica_retries: u64,
    /// Requests that stayed rejected after the whole retry budget.
    pub rejected_after_retry: u64,
    /// Merges performed.
    pub merges: u64,
    /// Maximum shard answer lists merged in one request.
    pub merge_depth_max: u64,
    /// Edge QCM response-cache counters.
    pub completion_cache: CacheStats,
    /// Edge QSM response-cache counters.
    pub run_cache: CacheStats,
    /// Requests served by another edge request's in-flight scatter.
    pub edge_coalesced_hits: u64,
    /// Scatters executed as edge single-flight leaders.
    pub edge_coalesce_leaders: u64,
    /// Merged run payloads in which at least one shard relaxed at a reduced
    /// QSM budget tier — 0 unless the shard servers opted into
    /// [`ServerConfig::qsm_shed_budget`](sapphire_server::ServerConfig::qsm_shed_budget)
    /// or the edge runs a [`DegradePolicy`] and requested a tier itself.
    pub degraded_runs: u64,
    /// Degraded merges by the deepest tier observed in the merge; index 0
    /// is always 0 (a tier-0 merge is never degraded) and the length is
    /// `SteinerConfig::MAX_TIER + 1`. Sums to
    /// [`degraded_runs`](Self::degraded_runs).
    pub degraded_by_tier: Vec<u64>,
    /// Wire-transport connections established, summed over every replica
    /// client (0 when the router routes over in-process replicas).
    pub wire_connects: u64,
    /// Wire connections re-established after an IO failure broke the
    /// previous one.
    pub wire_reconnects: u64,
    /// Replica calls that failed on the transport and surfaced as the
    /// retryable [`ServerError::Unreachable`].
    pub wire_io_errors: u64,
    /// Frames the codec rejected (bad magic, oversized, bad tag) — protocol
    /// violations, never retried, never silently skipped.
    pub wire_corrupt_frames: u64,
}

#[derive(Debug)]
struct Counters {
    fanout: Vec<AtomicU64>,
    hedges_fired: AtomicU64,
    hedges_won: AtomicU64,
    hedges_suppressed: AtomicU64,
    /// Gauge of hedged secondary calls currently running (each pins one
    /// admission slot on its replica until its scan completes). The hedge
    /// task itself decrements it when the scan finishes, win or lose.
    hedges_in_flight: AtomicU64,
    /// Seed sequence for per-call retry jitter.
    jitter_seq: AtomicU64,
    replica_retries: AtomicU64,
    rejected_after_retry: AtomicU64,
    merges: AtomicU64,
    merge_depth_max: AtomicU64,
    edge_coalesced_hits: AtomicU64,
    edge_coalesce_leaders: AtomicU64,
    degraded_runs: AtomicU64,
    degraded_by_tier: Vec<AtomicU64>,
}

impl Counters {
    fn new(shards: usize) -> Self {
        Counters {
            fanout: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            hedges_fired: AtomicU64::new(0),
            hedges_won: AtomicU64::new(0),
            hedges_suppressed: AtomicU64::new(0),
            hedges_in_flight: AtomicU64::new(0),
            jitter_seq: AtomicU64::new(0),
            replica_retries: AtomicU64::new(0),
            rejected_after_retry: AtomicU64::new(0),
            merges: AtomicU64::new(0),
            merge_depth_max: AtomicU64::new(0),
            edge_coalesced_hits: AtomicU64::new(0),
            edge_coalesce_leaders: AtomicU64::new(0),
            degraded_runs: AtomicU64::new(0),
            degraded_by_tier: (0..=SteinerConfig::MAX_TIER)
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }

    fn record_merge(&self, depth: usize) {
        self.merges.fetch_add(1, Ordering::Relaxed);
        self.merge_depth_max
            .fetch_max(depth as u64, Ordering::Relaxed);
    }
}

/// Typed back-pressure worth failing over: the replica is busy *now*; a
/// sibling (or a later retry) may not be. Transport failures
/// ([`ServerError::Unreachable`]) join the list with the wire boundary:
/// shard requests are stateless and idempotent, so a dead link is exactly
/// the case replica failover exists for. Work-budget timeouts are
/// deterministic for the same request, so retrying them elsewhere just
/// doubles the damage.
fn is_retryable(e: &ServerError) -> bool {
    matches!(
        e,
        ServerError::Overloaded { .. }
            | ServerError::QueueTimeout { .. }
            | ServerError::Unreachable { .. }
    )
}

/// How long a rejection suggests waiting before a retry, as the endpoint
/// layer reads it (nothing, for a rejection without a hint).
fn retry_hint(e: &ServerError) -> Duration {
    EndpointError::from(e.clone())
        .retry_after()
        .unwrap_or_default()
}

/// The endpoint name every shard carries in a cross-shard federated plan.
const ENDPOINT_NAME: &str = "sapphire-cluster";

/// One shard as the [`Endpoint`] a cross-shard bound join probes and
/// sub-queries: each query is one [`Routing::shard_rtt`] — the same
/// load-ordered, hedged, retried, counted and spanned shard call every
/// scatter makes — so the join keeps choosing a replica per query instead
/// of pinning whichever was least loaded (or alive) when the plan started.
struct ShardEndpoint {
    routing: Arc<Routing>,
    shard: usize,
    tenant: String,
}

impl Endpoint for ShardEndpoint {
    fn name(&self) -> &str {
        ENDPOINT_NAME
    }

    fn execute_parsed(&self, query: &Query) -> Result<QueryResult, EndpointError> {
        let request = Arc::new(WireRequest::Raw {
            tenant: self.tenant.clone(),
            query: query.clone(),
        });
        self.routing
            .shard_rtt(self.shard, &request, None, WireReply::into_raw)
            .map_err(|e| match e {
                ClusterError::ShardUnavailable { last: error, .. }
                | ClusterError::Shard { error, .. } => error.into(),
                other => unreachable!("a shard call fails as its shard: {other}"),
            })
    }
}

/// The rows of a raw SELECT's reply: a boolean is a reply of the wrong kind,
/// a typed `protocol:` failure like any other — never zero rows.
fn raw_select_rows(reply: WireReply) -> Result<Solutions, ServerError> {
    match reply.into_raw()? {
        QueryResult::Solutions(rows) => Ok(rows),
        QueryResult::Boolean(_) => Err(ServerError::Backend(
            "protocol: expected Solutions reply, got Boolean".into(),
        )),
    }
}

/// True when every triple pattern shares one subject: the whole query is a
/// subject star, co-located by the subject-hash partitioner, so a per-shard
/// evaluation plus a union merge is exact.
fn single_subject(query: &SelectQuery) -> bool {
    let mut subjects = query.pattern.triples.iter().map(|t| &t.subject);
    match subjects.next() {
        None => false,
        Some(first) => subjects.all(|s| s == first),
    }
}

/// The query's pattern as a star-projected, slice-free SELECT: what the
/// router actually scatters, so shards return *full bindings* and the edge
/// merge can deduplicate schema-slice replicas before projecting.
fn star_pattern_query(query: &SelectQuery) -> SelectQuery {
    SelectQuery {
        distinct: false,
        projection: Projection::Star,
        pattern: query.pattern.clone(),
        group_by: Vec::new(),
        order_by: Vec::new(),
        limit: None,
        offset: None,
    }
}

/// A query the evaluator cannot answer over the merged bindings.
fn unsupported(error: sapphire_sparql::EvalError) -> ClusterError {
    ClusterError::Unsupported(error.to_string())
}

/// The home shard of a query whose patterns share one *ground* subject —
/// the one case where scattering is pure waste and the router can route to
/// a single shard.
fn ground_subject_shard(query: &SelectQuery, shards: usize) -> Option<usize> {
    if !single_subject(query) {
        return None;
    }
    match &query.pattern.triples.first()?.subject {
        TermPattern::Term(t) => Some(sapphire_rdf::shard_of(t, shards)),
        TermPattern::Var(_) => None,
    }
}

/// What a shard call reads — the replicas, the routing policy, the
/// counters and the edge's [`Obs`] — in one value the router shares (`Arc`)
/// with the executor tasks that make its calls, so each task owns what it
/// touches.
struct Routing {
    /// What the router actually routes over: one [`ShardService`] per
    /// replica per shard. In-process replicas and wire clients mix freely
    /// (though a deployment normally picks one).
    shards: Vec<Vec<Arc<dyn ShardService>>>,
    config: ClusterConfig,
    counters: Counters,
    obs: Arc<Obs>,
}

/// The calling request's trace context, carried into a task on an executor
/// worker.
#[derive(Clone)]
struct RequestCtx(Option<(trace::Trace, Option<u32>)>);

impl RequestCtx {
    fn current() -> Self {
        RequestCtx(trace::current_ctx())
    }

    /// Enter it on this thread for the guards' lifetime: spans parent under
    /// the caller's, and a request mark keeps an in-process shard server's
    /// own request scope inert.
    fn enter(&self) -> (RequestMark, Option<TraceScope>) {
        let scope = self.0.clone().map(|(trace, parent)| match parent {
            Some(p) => TraceScope::enter_with_parent(trace, p),
            None => TraceScope::enter(Some(trace)),
        });
        (RequestMark::new(), scope)
    }
}

/// The sharded multi-tier edge router. See the module docs.
pub struct ClusterRouter {
    routing: Arc<Routing>,
    /// The in-process data tier, kept only when the router was built over
    /// one ([`new`](Self::new)/[`with_obs`](Self::with_obs)); a router over
    /// explicit shard services ([`over`](Self::over)) has none.
    cluster: Option<Cluster>,
    k: usize,
    completions: ReadThrough<MergedCompletion, ClusterError>,
    runs: ReadThrough<ClusterRunPayload, ClusterError>,
    /// Raw queries single-flight at the edge but are never edge-cached.
    raw: ReadThrough<QueryResult, ClusterError>,
}

impl ClusterRouter {
    /// Stand an edge router in front of a cluster.
    pub fn new(cluster: Cluster, config: ClusterConfig) -> Self {
        Self::with_obs(cluster, config, Arc::new(Obs::new()))
    }

    /// Like [`new`](Self::new), but aggregating edge-tier stage histograms
    /// and traces into a caller-provided [`Obs`] — share one handle with the
    /// shard servers ([`SapphireServer::with_obs`](sapphire_server::SapphireServer::with_obs)) to get a single
    /// cross-tier view.
    pub fn with_obs(cluster: Cluster, config: ClusterConfig, obs: Arc<Obs>) -> Self {
        let shards = cluster
            .shards()
            .iter()
            .map(|replicas| {
                replicas
                    .iter()
                    .map(|r| r.clone() as Arc<dyn ShardService>)
                    .collect()
            })
            .collect();
        Self::build(shards, Some(cluster), config, obs)
    }

    /// Stand an edge router over explicit shard services — one
    /// [`ShardService`] per replica per shard — instead of an in-process
    /// [`Cluster`]. This is how wire mode runs: the services are
    /// `sapphire_wire::WireClient`s dialing replica processes, and the whole
    /// routing policy (load order, hedging, typed retry, degradation tiers)
    /// applies unchanged because it only ever spoke [`ShardService`].
    pub fn over(shards: Vec<Vec<Arc<dyn ShardService>>>, config: ClusterConfig) -> Self {
        Self::over_with_obs(shards, config, Arc::new(Obs::new()))
    }

    /// Like [`over`](Self::over), with a caller-provided [`Obs`].
    pub fn over_with_obs(
        shards: Vec<Vec<Arc<dyn ShardService>>>,
        config: ClusterConfig,
        obs: Arc<Obs>,
    ) -> Self {
        Self::build(shards, None, config, obs)
    }

    fn build(
        shards: Vec<Vec<Arc<dyn ShardService>>>,
        cluster: Option<Cluster>,
        config: ClusterConfig,
        obs: Arc<Obs>,
    ) -> Self {
        assert!(
            shards.iter().all(|r| !r.is_empty()),
            "every shard needs at least one replica"
        );
        // Every replica of every shard shares one model config; the edge
        // presents the same top-k the shards compute.
        let k = shards[0][0].top_k();
        let cache_shards = config.cache_shards;
        let capacity = Some(config.cache_capacity_per_shard);
        ClusterRouter {
            completions: ReadThrough::new("edge completion", cache_shards, capacity),
            runs: ReadThrough::new("edge run", cache_shards, capacity),
            raw: ReadThrough::new("edge service", cache_shards, None),
            routing: Arc::new(Routing {
                counters: Counters::new(shards.len()),
                obs,
                shards,
                config,
            }),
            k,
            cluster,
        }
    }

    fn shard_count(&self) -> usize {
        self.routing.shards.len()
    }

    /// The router's observability handle (edge stage histograms, trace
    /// sampler, flight recorder).
    pub fn obs(&self) -> &Arc<Obs> {
        &self.routing.obs
    }

    /// The underlying in-process cluster.
    ///
    /// # Panics
    ///
    /// A router built over explicit shard services ([`over`](Self::over) —
    /// e.g. wire clients dialing replica processes) has no in-process data
    /// tier to hand out; calling this on one is a harness bug.
    pub fn cluster(&self) -> &Cluster {
        self.cluster
            .as_ref()
            .expect("router built over explicit shard services has no in-process cluster")
    }

    /// The configuration in effect.
    pub fn config(&self) -> &ClusterConfig {
        &self.routing.config
    }

    /// Observability snapshot.
    pub fn metrics(&self) -> ClusterMetrics {
        // Transport counters live on the replica clients, not the router:
        // they keep counting across requests (and across routers, if two
        // share clients), so the snapshot reads them live and sums.
        let mut transport = TransportStats::default();
        for replicas in &self.routing.shards {
            for replica in replicas {
                transport.merge(&replica.transport_stats());
            }
        }
        let counters = &self.routing.counters;
        let load =
            |counters: &[AtomicU64]| counters.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        ClusterMetrics {
            fanout_per_shard: load(&counters.fanout),
            hedges_fired: counters.hedges_fired.load(Ordering::Relaxed),
            hedges_won: counters.hedges_won.load(Ordering::Relaxed),
            hedges_suppressed: counters.hedges_suppressed.load(Ordering::Relaxed),
            replica_retries: counters.replica_retries.load(Ordering::Relaxed),
            rejected_after_retry: counters.rejected_after_retry.load(Ordering::Relaxed),
            merges: counters.merges.load(Ordering::Relaxed),
            merge_depth_max: counters.merge_depth_max.load(Ordering::Relaxed),
            completion_cache: self.completions.cache_stats(),
            run_cache: self.runs.cache_stats(),
            edge_coalesced_hits: counters.edge_coalesced_hits.load(Ordering::Relaxed),
            edge_coalesce_leaders: counters.edge_coalesce_leaders.load(Ordering::Relaxed),
            degraded_runs: counters.degraded_runs.load(Ordering::Relaxed),
            degraded_by_tier: load(&counters.degraded_by_tier),
            wire_connects: transport.connects,
            wire_reconnects: transport.reconnects,
            wire_io_errors: transport.io_errors,
            wire_corrupt_frames: transport.corrupt_frames,
        }
    }

    /// The cluster tier as [`MetricsHub`] sections: routing counters,
    /// per-shard fan-out, edge response caches, and this router's stage
    /// histograms.
    pub fn export_metrics(&self) -> MetricsHub {
        let m = self.metrics();
        let mut hub = MetricsHub::new();
        {
            let cluster = hub.section("cluster");
            cluster
                .field("shards", m.fanout_per_shard.len())
                .field("hedges_fired", m.hedges_fired)
                .field("hedges_won", m.hedges_won)
                .field("hedges_suppressed", m.hedges_suppressed)
                .field("replica_retries", m.replica_retries)
                .field("rejected_after_retry", m.rejected_after_retry)
                .field("merges", m.merges)
                .field("merge_depth_max", m.merge_depth_max)
                .field("edge_coalesced_hits", m.edge_coalesced_hits)
                .field("edge_coalesce_leaders", m.edge_coalesce_leaders)
                .field("degraded_runs", m.degraded_runs)
                .field("wire_connects", m.wire_connects)
                .field("wire_reconnects", m.wire_reconnects)
                .field("wire_io_errors", m.wire_io_errors)
                .field("wire_corrupt_frames", m.wire_corrupt_frames);
            for (tier, runs) in m.degraded_by_tier.iter().enumerate().skip(1) {
                cluster.field(&format!("degraded_tier{tier}"), *runs);
            }
            for (shard, calls) in m.fanout_per_shard.iter().enumerate() {
                cluster.field(&format!("fanout_shard{shard}"), *calls);
            }
            cluster.field("fanout_total", m.fanout_per_shard.iter().sum::<u64>());
        }
        for (name, stats) in [
            ("edge_completion_cache", &m.completion_cache),
            ("edge_run_cache", &m.run_cache),
        ] {
            hub.section(name)
                .field("hits", stats.hits)
                .field("misses", stats.misses)
                .field("evictions", stats.evictions)
                .field("hit_ratio", stats.hit_ratio());
        }
        self.routing.obs.stage_sections(&mut hub);
        hub
    }

    /// Land one edge request in its metrics bucket (cache hits have no edge
    /// counter).
    fn count_served(&self, served: Served) {
        let counter = match served {
            Served::LateHit | Served::Follower => &self.routing.counters.edge_coalesced_hits,
            Served::Leader => &self.routing.counters.edge_coalesce_leaders,
            Served::Hit => return,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    // --- QCM ---------------------------------------------------------------

    /// Cluster QCM: scatter the completion to every shard, merge the ranked
    /// lists into the canonical top-k. Edge-cached and edge-coalesced by the
    /// same normalized key the shards use.
    pub fn complete(&self, tenant: &str, term: &str) -> Result<ClusterCompletion, ClusterError> {
        let _req = self.routing.obs.request_scope("complete", tenant);
        let (served, result) = self.completions.serve(
            &self.routing.obs,
            RequestKey::completion(term, self.k),
            || self.scatter_complete(tenant, term),
            |_| true,
        );
        self.count_served(served);
        result.map(|shared| shared.to_completion(served.cached()))
    }

    fn scatter_complete(&self, tenant: &str, term: &str) -> Result<MergedCompletion, ClusterError> {
        // Each shard sends its own top k, and the merge of those is the
        // global top k: a completion a shard cut has k distinct entries
        // ranked ahead of it on that shard, each as strong in the merge.
        let lists: Vec<Vec<Completion>> = self.scatter(
            WireRequest::Complete {
                tenant: tenant.to_string(),
                term: term.to_string(),
                fetch: self.k,
            },
            None,
            None,
            |reply| Ok(reply.into_completion()?.suggestions),
        )?;
        let merge_depth = lists.len();
        self.routing.counters.record_merge(merge_depth);
        let suggestions = {
            let mut t = self.routing.obs.time(Stage::EdgeMerge);
            t.tag("completions");
            merge_completions(lists, self.k)
        };
        Ok(MergedCompletion {
            suggestions,
            merge_depth,
        })
    }

    // --- QSM / run ---------------------------------------------------------

    /// Cluster QSM + execution: scatter the (slice-stripped) query to every
    /// shard, merge answers exactly (the full bindings of a subject star's
    /// scatter or of a federated bound join for patterns spanning shards,
    /// then the query — aggregates included — applied to them once), merge
    /// suggestions deterministically, and re-prefetch every surviving
    /// suggestion's answers cluster-wide.
    pub fn run(&self, tenant: &str, query: &SelectQuery) -> Result<ClusterRun, ClusterError> {
        self.run_tiered(tenant, query, 0)
    }

    /// [`run`](Self::run) with a caller-imposed degradation-tier floor —
    /// the surface an upstream tier (another edge, say) uses to propagate
    /// its shed decision downstream. The tier actually *requested* from
    /// shards is the deeper of the floor and this router's own
    /// [`DegradePolicy`] signals (queue pressure, remaining deadline);
    /// without a policy the floor alone is honored, and
    /// `run_tiered(t, q, 0)` is exactly [`run`](Self::run).
    pub fn run_tiered(
        &self,
        tenant: &str,
        query: &SelectQuery,
        floor: usize,
    ) -> Result<ClusterRun, ClusterError> {
        let _req = self.routing.obs.request_scope("run", tenant);
        let started = Instant::now();
        // The edge chooses the tier it will request BEFORE any lookup: the
        // tier keys the edge cache and the coalescer, so tier-0 and tier-N
        // requests can never exchange payloads at the edge — the same
        // never-mix discipline the shards' tier-suffixed keys enforce. A
        // merge that came back degraded *deeper* than requested is
        // additionally refused by the insert veto below.
        let requested = self.requested_tier(floor, started);
        let (served, result) = self.runs.serve(
            &self.routing.obs,
            RequestKey::run(query.clone(), requested),
            || self.scatter_run(tenant, query, requested, started),
            // A payload that came back *deeper* than requested — a shard
            // shed on its own pressure beyond what the edge asked for — is
            // handed to the caller but never cached: its key would promise
            // more fidelity than its contents hold. (A payload *shallower*
            // than requested is fine: the query had no relaxation to shed,
            // so the "degraded" execution is byte-identical to the full one.)
            |payload| payload.tier <= requested,
        );
        self.count_served(served);
        result.map(|payload| ClusterRun {
            cached: served.cached(),
            payload,
        })
    }

    /// The QSM shed tier the edge requests for a run it is about to serve:
    /// the deepest of the caller's floor, per-shard queue pressure, and the
    /// remaining-deadline signal, clamped to the ladder. Pressure and
    /// deadline contribute only under a [`DegradePolicy`]; the floor is
    /// always honored (it is some upstream's already-made decision). The
    /// pressure probe reads each shard's *least-loaded* replica — the one
    /// load-aware routing will pick — and takes the worst shard, because a
    /// scatter must wait for all of them.
    fn requested_tier(&self, floor: usize, started: Instant) -> usize {
        let mut tier = floor;
        if let Some(policy) = &self.routing.config.degrade {
            let pressure = (self.routing.shards.iter())
                .map(|replicas| {
                    replicas
                        .iter()
                        .map(|replica| replica.shed_pressure_tier())
                        .min()
                        .unwrap_or(0)
                })
                .max()
                .unwrap_or(0);
            let remaining = policy.deadline.saturating_sub(started.elapsed());
            let deadline_tier = if remaining * 2 >= policy.deadline {
                0
            } else if remaining * 4 >= policy.deadline {
                1
            } else {
                2
            };
            tier = tier.max(pressure).max(deadline_tier);
        }
        tier.min(SteinerConfig::MAX_TIER)
    }

    /// The deadline budget still unspent `started` ago — what a run scatter
    /// hop propagates to shards. `None` without a [`DegradePolicy`].
    fn remaining_budget(&self, started: Instant) -> Option<Duration> {
        (self.routing.config.degrade)
            .as_ref()
            .map(|policy| policy.deadline.saturating_sub(started.elapsed()))
    }

    fn scatter_run(
        &self,
        tenant: &str,
        query: &SelectQuery,
        requested: usize,
        started: Instant,
    ) -> Result<ClusterRunPayload, ClusterError> {
        // Scatter the *star-projected* query: shards return full bindings,
        // which is exactly what the exact merge needs (see `merge_bindings`)
        // — so the per-shard execution is paid once, not once for the run
        // and again for the answers. QSM candidate generation only reads
        // the pattern, and a candidate is an edit to whatever query it is
        // applied to, so the projection change costs the suggestions nothing.
        let budget = self.remaining_budget(started);
        let mut payloads = self.scatter(
            WireRequest::Run {
                tenant: tenant.to_string(),
                query: star_pattern_query(query),
                tier: requested,
                budget,
            },
            None,
            budget,
            WireReply::into_run,
        )?;
        let executed = payloads.iter().all(|p| p.executed);
        // Each shard executes at the deeper of the requested tier and its
        // own pressure tier; the merge is degraded if any contributor was,
        // keyed by the deepest tier observed.
        let tier = payloads
            .iter()
            .map(|p| p.suggestions.tier)
            .max()
            .unwrap_or(0);
        let degraded = payloads.iter().any(|p| p.suggestions.degraded);

        // Answers: the scattered star bindings merge exactly for subject
        // stars; patterns spanning shards still need the federated bound
        // join (the per-shard bindings lack the cross-shard join rows).
        let answers = if single_subject(query) {
            let lists: Vec<Solutions> = payloads
                .iter_mut()
                .map(|p| std::mem::take(&mut p.answers))
                .collect();
            self.routing.counters.record_merge(lists.len());
            let mut t = self.routing.obs.time(Stage::EdgeMerge);
            t.tag("run bindings");
            merge_bindings(query, lists).map_err(unsupported)?
        } else {
            self.cluster_answers(tenant, query)?
        };

        // Alternatives: merge the *unfiltered* candidate lists (a shard
        // cannot apply the "returns answers" cut — a rewrite whose answers
        // live on other shards would be dropped by everyone) and apply the
        // model's own cut at the edge, to rewrites of the original
        // (unprojected, unsliced) query, against cluster-wide answers.
        let mut candidate_lists: Vec<Vec<TermAlternative>> = Vec::with_capacity(payloads.len());
        let triples = query.pattern.triples.len();
        for (shard, payload) in payloads.iter().enumerate() {
            let candidates = &payload.suggestions.candidates;
            // `triple_index` came off the wire: an edit aimed outside the
            // query (`rewrite` would return `None`, the cut would pass it
            // over) is a malformed reply — never an index panic and never a
            // silently shorter list.
            if let Some(bad) = candidates.iter().find(|c| c.triple_index >= triples) {
                return Err(ClusterError::Shard {
                    shard,
                    error: ServerError::Backend(format!(
                        "malformed suggestion: triple {} of {triples}",
                        bad.triple_index
                    )),
                });
            }
            candidate_lists.push(candidates.to_vec());
        }
        self.routing.counters.record_merge(candidate_lists.len());
        let mut candidates = {
            let mut t = self.routing.obs.time(Stage::EdgeMerge);
            t.tag("alternatives");
            dedup_alternatives(candidate_lists)
        };
        // Canonical order puts every predicate rewrite before every literal
        // rewrite, so one cut per kind probes in presentation order and
        // stops once the kind's k/2 slots are full — the same early exit the
        // single-box Algorithm 2 takes.
        sort_alternatives(&mut candidates);
        let literals_from =
            candidates.partition_point(|c| c.position == AlteredPosition::Predicate);
        let half = (self.k / 2).max(1);
        let mut alternatives = Vec::new();
        for kind in [&candidates[..literals_from], &candidates[literals_from..]] {
            // A shed prefetch fails the whole run, typed and retryable,
            // rather than silently dropping the candidate: a degraded
            // suggestion list would make identical requests produce
            // different bytes depending on transient load, which is
            // exactly what the merge contract forbids. (A shed *probe*
            // changes no bytes: the cut then prefetches what it would have
            // passed over. A rewrite the evaluator cannot answer — MIN over
            // no solutions, say — is passed over, as the model passes it.)
            alternatives.extend(top_with_answers(query, kind, half, |asked| {
                match self.cluster_answers(tenant, asked) {
                    Err(ClusterError::Unsupported(_)) => Ok(None),
                    answered => answered.map(Some),
                }
            })?);
        }

        // Relaxations: dedup by relaxed-query identity, prefer complete
        // trees, keep the canonical best, re-prefetch cluster-wide.
        let mut relaxed: Vec<StructureSuggestion> = payloads
            .iter()
            .flat_map(|p| p.suggestions.relaxations.clone())
            .collect();
        // The order among complete (or incomplete) trees is that of the
        // queries' renderings: a cold merge of at most one tree a shard.
        relaxed.sort_by_cached_key(|s| {
            let rendered = format!("{:?}", s.relaxed.query);
            (std::cmp::Reverse(s.relaxed.complete), rendered)
        });
        relaxed.dedup_by(|later, first| later.relaxed.query == first.relaxed.query);
        relaxed.truncate(1);
        let mut relaxations = Vec::new();
        for mut suggestion in relaxed {
            let answers = self.cluster_answers(tenant, &suggestion.relaxed.query)?;
            if answers.is_empty() {
                continue;
            }
            suggestion.answers = answers;
            relaxations.push(suggestion);
        }

        if degraded {
            let counters = &self.routing.counters;
            counters.degraded_runs.fetch_add(1, Ordering::Relaxed);
            counters.degraded_by_tier[tier.min(SteinerConfig::MAX_TIER)]
                .fetch_add(1, Ordering::Relaxed);
        }
        Ok(ClusterRunPayload {
            answers,
            executed,
            alternatives,
            relaxations,
            tier,
            degraded,
        })
    }

    // --- Raw queries -------------------------------------------------------

    /// The cluster's raw SPARQL surface: a SELECT answered exactly, as a
    /// [`run`](Self::run)'s answers are, and an ASK as a SELECT of at most
    /// one row per consulted shard. Never edge-cached; identical in-flight
    /// queries coalesce at this tier by their [`RequestKey`], the same key
    /// every other tier uses.
    pub fn execute_query(&self, tenant: &str, query: &Query) -> Result<QueryResult, ClusterError> {
        let _req = self.routing.obs.request_scope("query", tenant);
        let (served, result) = self.raw.serve(
            &self.routing.obs,
            RequestKey::raw(query.clone()),
            || match query {
                Query::Select(select) => self
                    .cluster_answers(tenant, select)
                    .map(QueryResult::Solutions),
                // A SELECT of at most one row per list: the pattern has an
                // answer iff some list has a row.
                Query::Ask(pattern) => {
                    let probe = SelectQuery {
                        limit: Some(1),
                        ..SelectQuery::star(pattern.clone())
                    };
                    let lists = self.binding_lists(tenant, &probe)?;
                    Ok(QueryResult::Boolean(lists.iter().any(|l| !l.is_empty())))
                }
            },
            |_| true,
        );
        self.count_served(served);
        result.map(Arc::unwrap_or_clone)
    }

    /// The exact cluster-wide answer set of one SELECT: full bindings —
    /// targeted single-shard routing for ground-subject stars, a scatter for
    /// variable-subject stars, a federated bound join over the shards for
    /// patterns spanning them — merged, then the query applied to them once.
    fn cluster_answers(
        &self,
        tenant: &str,
        query: &SelectQuery,
    ) -> Result<Solutions, ClusterError> {
        let lists = self.binding_lists(tenant, &star_pattern_query(query))?;
        self.routing.counters.record_merge(lists.len());
        let mut t = self.routing.obs.time(Stage::EdgeMerge);
        t.tag("bindings");
        merge_bindings(query, lists).map_err(unsupported)
    }

    /// Full-binding (`SELECT *`) row lists for a query's pattern, one per
    /// consulted shard. Scattering star projections is what lets
    /// [`merge_bindings`] deduplicate schema-slice replicas exactly (see its
    /// docs); the cross-shard plan contributes one list.
    fn binding_lists(
        &self,
        tenant: &str,
        star: &SelectQuery,
    ) -> Result<Vec<Solutions>, ClusterError> {
        if single_subject(star) {
            let target = ground_subject_shard(star, self.shard_count());
            self.scatter(
                WireRequest::Raw {
                    tenant: tenant.to_string(),
                    query: Query::Select(star.clone()),
                },
                target,
                None,
                raw_select_rows,
            )
        } else {
            Ok(vec![self.federated_rows(tenant, star)?])
        }
    }

    /// Cross-shard fallback: the federated plan over the shards, each a
    /// [`ShardEndpoint`], strict
    /// ([`FederatedProcessor::partitioned`]):
    /// an ASK per pattern per shard, then the query whole to the one shard
    /// that is the only source of every pattern, or else a bound join across
    /// the sources. Admission control and budgets still hold at every shard —
    /// the endpoints are the servers themselves.
    fn federated_rows(&self, tenant: &str, query: &SelectQuery) -> Result<Solutions, ClusterError> {
        let shards = (0..self.shard_count())
            .map(|shard| {
                Arc::new(ShardEndpoint {
                    routing: self.routing.clone(),
                    shard,
                    tenant: tenant.to_string(),
                }) as Arc<dyn Endpoint>
            })
            .collect();
        // The federated plan spans every shard, so a failure here cannot be
        // pinned on one shard index — it surfaces as the dedicated
        // cross-shard variant (still typed: back-pressure stays a
        // rejection).
        let rows = FederatedProcessor::partitioned(shards)
            .execute_parsed(&Query::Select(query.clone()))
            .and_then(|answer| {
                (answer.into_solutions())
                    .ok_or_else(|| FederationError::Unsupported("expected SELECT".into()))
            });
        rows.map_err(|e| ClusterError::CrossShard {
            error: sapphire_server::error::from_federation(e),
        })
    }

    // --- Routing core ------------------------------------------------------

    /// Scatter one request: to every shard (`target == None`) or to a single
    /// home shard, each reply taken as the `kind` the request expects.
    /// Shards are called concurrently; the gather preserves shard order, so
    /// merges never depend on completion order.
    fn scatter<T: Send + 'static>(
        &self,
        req: WireRequest,
        target: Option<usize>,
        budget: Option<Duration>,
        kind: fn(WireReply) -> Result<T, ServerError>,
    ) -> Result<Vec<T>, ClusterError> {
        let req = Arc::new(req);
        if let Some(shard) = target {
            return Ok(vec![self.routing.shard_rtt(shard, &req, budget, kind)?]);
        }
        // One task per shard on the shared executor, each in this request's
        // context, zero thread spawns; `run` collects in task-index
        // (= shard) order, so the gather never depends on completion order.
        let (routing, ctx) = (Arc::clone(&self.routing), RequestCtx::current());
        exec::global()
            .run(self.shard_count(), move |shard| {
                let _in = ctx.enter();
                routing.shard_rtt(shard, &req, budget, kind)
            })
            .into_iter()
            .collect()
    }

    /// Hedged secondary calls running right now (each pinning an admission
    /// slot on its replica). Bounded by
    /// [`ClusterConfig::max_inflight_hedges`].
    pub fn hedges_in_flight(&self) -> u64 {
        let gauge = &self.routing.counters.hedges_in_flight;
        gauge.load(Ordering::Relaxed)
    }
}

impl Routing {
    /// One whole shard call ([`call_shard`]: load-ordered replica choice,
    /// hedging, typed retry) timed under a `shard_rtt` span; per-attempt
    /// observations land inside `call_shard` so the histogram sees every
    /// round trip, hedges and retries included.
    fn shard_rtt<T>(
        self: &Arc<Self>,
        shard: usize,
        req: &Arc<WireRequest>,
        budget: Option<Duration>,
        kind: fn(WireReply) -> Result<T, ServerError>,
    ) -> Result<T, ClusterError> {
        let started = Instant::now();
        let span = trace::current_ctx().map(|(trace, parent)| {
            let (idx, _) = trace.open_span(Stage::ShardRtt.name(), parent, format!("shard{shard}"));
            (trace, idx)
        });
        let guard = span
            .as_ref()
            .map(|(trace, idx)| TraceScope::enter_with_parent(trace.clone(), *idx));
        let result = self.call_shard(shard, req, budget, kind);
        drop(guard);
        if let Some((trace, idx)) = span {
            trace.close_span(idx, started.elapsed().as_micros() as u64);
        }
        result
    }

    /// Replica indices of one shard in ascending admission-load order
    /// (ties by index) — the load-aware routing decision.
    fn replica_order(&self, shard: usize) -> Vec<usize> {
        let replicas = &self.shards[shard];
        let mut order: Vec<usize> = (0..replicas.len()).collect();
        order.sort_by_key(|&i| {
            let (in_flight, queued) = replicas[i].admission_load();
            (in_flight + queued, i)
        });
        order
    }

    /// One shard call under the full routing policy: load-ordered replica
    /// choice, hedging, and typed bounded retry with failover — the retry
    /// loop itself is [`Backoff::run`]. A reply of another kind than `kind`
    /// takes is a non-retryable protocol failure of the shard.
    fn call_shard<T>(
        self: &Arc<Self>,
        shard: usize,
        req: &Arc<WireRequest>,
        budget: Option<Duration>,
        kind: fn(WireReply) -> Result<T, ServerError>,
    ) -> Result<T, ClusterError> {
        let order = self.replica_order(shard);
        // When the request carries a deadline budget, retrying stops once
        // the budget is spent — retrying a shard call nobody is still
        // waiting for only deepens the overload it is reacting to.
        let call_started = Instant::now();
        // Per-call jitter stream: concurrent callers shed by the same
        // saturated replica must not retry in lock-step (the seed sequence
        // gives every call its own decorrelated schedule).
        let seed = self.counters.jitter_seq.fetch_add(1, Ordering::Relaxed);
        let attempt = |attempt: u32| {
            if attempt > 0 {
                self.counters
                    .replica_retries
                    .fetch_add(1, Ordering::Relaxed);
            }
            self.attempt_shard(shard, &order, attempt, req)
                .and_then(kind)
        };
        let retry_after = |e: &ServerError| {
            let budget_spent = budget.is_some_and(|b| call_started.elapsed() >= b);
            (is_retryable(e) && !budget_spent).then(|| retry_hint(e))
        };
        match self.config.backoff.run(seed, attempt, retry_after) {
            Ok(reply) => Ok(reply),
            Err(e) if is_retryable(&e) => {
                self.counters
                    .rejected_after_retry
                    .fetch_add(1, Ordering::Relaxed);
                Err(ClusterError::ShardUnavailable { shard, last: e })
            }
            Err(e) => Err(ClusterError::Shard { shard, error: e }),
        }
    }

    /// Attempt number `attempt` of a shard call: one round trip to the
    /// replica that attempt falls on (hedged against the next in load order
    /// when there is one), counted in the fan-out, observed as `shard_rtt`
    /// and — in a sampled request — spanned as `replica_call`.
    fn attempt_shard(
        self: &Arc<Self>,
        shard: usize,
        order: &[usize],
        attempt: u32,
        req: &Arc<WireRequest>,
    ) -> Result<WireReply, ServerError> {
        let replicas = &self.shards[shard];
        self.counters.fanout[shard].fetch_add(1, Ordering::Relaxed);
        let primary = order[attempt as usize % order.len()];
        // With wire replicas this is a *real* network round trip;
        // in-process it is a function call. Tag every observation with
        // the transport so the histogram never silently mixes the two.
        let transport = replicas[primary].transport();
        let attempt_started = Instant::now();
        let mut rtt = self.obs.time(Stage::ShardRtt);
        rtt.tag(transport);
        let result = match (self.config.hedge_after, order.len() > 1) {
            (Some(budget), true) => {
                let secondary = order[(attempt as usize + 1) % order.len()];
                self.call_hedged(shard, replicas, primary, secondary, budget, req)
            }
            _ => replicas[primary].call(req),
        };
        let attempt_us = attempt_started.elapsed().as_micros() as u64;
        drop(rtt);
        if let Some((trace, parent)) = trace::current_ctx() {
            trace.add_span(
                "replica_call",
                attempt_started,
                attempt_us,
                parent,
                format!(
                    "shard{shard} replica{primary} attempt{attempt} transport={transport} ok={}",
                    result.is_ok()
                ),
            );
        }
        result
    }

    /// Fire at `primary`; if it does not answer within `budget`, fire the
    /// same request at `secondary` and take the first reply (preferring a
    /// success when both eventually answer).
    ///
    /// The slower call keeps running — it holds its own admission slot,
    /// exactly the cost hedging is priced at — but bounded: the number of
    /// in-flight hedges is capped by [`ClusterConfig::max_inflight_hedges`]
    /// (a hedge that would exceed it is suppressed and the call just waits
    /// for its primary; the token is taken at submission and released by the
    /// hedge task itself when its scan completes). Calls are executor tasks,
    /// not threads — the old reaper that joined loser threads is gone
    /// because there is nothing to join: each task owns (`Arc`s) everything
    /// it touches. Progress is guaranteed even with a saturated pool: any
    /// call this thread ends up blocked on gets claimed back and run inline
    /// ([`exec::TaskHandle::run_now`]).
    fn call_hedged(
        self: &Arc<Self>,
        shard: usize,
        replicas: &[Arc<dyn ShardService>],
        primary: usize,
        secondary: usize,
        budget: Duration,
        req: &Arc<WireRequest>,
    ) -> Result<WireReply, ServerError> {
        let (tx, rx) = mpsc::channel();
        let ctx = RequestCtx::current();
        let submit_call = |replica: usize, hedged: bool| -> exec::TaskHandle {
            let (server, req, tx, ctx) = (
                Arc::clone(&replicas[replica]),
                Arc::clone(req),
                tx.clone(),
                ctx.clone(),
            );
            let routing = Arc::clone(self);
            exec::global().spawn(move || {
                let result = {
                    let _in = ctx.enter();
                    server.call(&req)
                };
                // The hedge task itself releases its in-flight token when
                // the scan completes — the gauge tracks scans (each pinning
                // an admission slot), not task lifetimes.
                if hedged {
                    (routing.counters.hedges_in_flight).fetch_sub(1, Ordering::Relaxed);
                }
                let _ = tx.send((hedged, result));
            })
        };
        let primary_call = submit_call(primary, false);
        match rx.recv_timeout(budget) {
            Ok((_, reply)) => reply,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                let cap = self.config.max_inflight_hedges as u64;
                let token = self.counters.hedges_in_flight.fetch_update(
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                    |n| (n < cap).then_some(n + 1),
                );
                if token.is_err() {
                    // At the cap: no hedge — wait out the primary instead of
                    // growing the loser population. If the primary is still
                    // queued behind a saturated pool, run it right here.
                    self.counters
                        .hedges_suppressed
                        .fetch_add(1, Ordering::Relaxed);
                    primary_call.run_now();
                    let (_, reply) = rx.recv().expect("a replica call always replies");
                    return reply;
                }
                self.counters.hedges_fired.fetch_add(1, Ordering::Relaxed);
                // The hedge is a real extra shard call; the fan-out counter
                // must see it (its doc promises hedges are included).
                self.counters.fanout[shard].fetch_add(1, Ordering::Relaxed);
                let hedge_fired = Instant::now();
                let secondary_call = submit_call(secondary, true);
                let (first_hedged, first) = match rx.recv_timeout(budget) {
                    Ok(reply) => reply,
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        // Another budget has passed with no reply — the pool
                        // may be saturated with both calls still queued.
                        // Claim whatever has not started and run it inline;
                        // after that at least one send is guaranteed.
                        primary_call.run_now();
                        secondary_call.run_now();
                        rx.recv().expect("a replica call always replies")
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => {
                        unreachable!("senders live in the submitted calls")
                    }
                };
                if let Some((trace, parent)) = trace::current_ctx() {
                    trace.add_span(
                        "hedge",
                        hedge_fired,
                        hedge_fired.elapsed().as_micros() as u64,
                        parent,
                        format!("shard{shard} secondary replica{secondary} won={first_hedged}"),
                    );
                }
                match first {
                    Ok(reply) => {
                        if first_hedged {
                            self.counters.hedges_won.fetch_add(1, Ordering::Relaxed);
                        }
                        // The loser keeps running detached on the pool; its
                        // gauge token is released when its scan completes.
                        Ok(reply)
                    }
                    // The first reply failed; the other call is still due.
                    // Force it to start if it is stuck in the queue, then
                    // wait it out.
                    Err(first_err) => {
                        primary_call.run_now();
                        secondary_call.run_now();
                        match rx.recv() {
                            Ok((second_hedged, Ok(reply))) => {
                                if second_hedged {
                                    self.counters.hedges_won.fetch_add(1, Ordering::Relaxed);
                                }
                                Ok(reply)
                            }
                            _ => Err(first_err),
                        }
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                unreachable!("sender lives in the submitted call")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_hint_reads_the_endpoint_layers_hint() {
        let overloaded = |in_flight| ServerError::Overloaded {
            in_flight,
            queue_depth: 0,
        };
        let ms = Duration::from_millis;
        for (error, hint) in [
            (overloaded(3), ms(3)),
            (overloaded(0), ms(1)),
            (ServerError::QueueTimeout { waited_ms: 250 }, ms(1)),
            (
                ServerError::Unreachable {
                    reason: "reset".into(),
                },
                ms(1),
            ),
            (ServerError::Timeout { work_used: 9 }, Duration::ZERO),
            (ServerError::Backend("boom".into()), Duration::ZERO),
        ] {
            assert_eq!(retry_hint(&error), hint, "{error:?}");
        }
    }
}

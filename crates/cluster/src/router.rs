//! The edge router: scatter-gather over shard replicas with load-aware,
//! hedged, typed-retry routing.
//!
//! A [`ClusterRouter`] is the tier users talk to. For every request it
//! *scatters* a stateless shard request to each shard (picking the replica
//! with the lowest [`admission_load`](sapphire_server::SapphireServer::admission_load)),
//! *gathers* the per-shard answers, and *merges* them with the deterministic
//! score-then-key merges of [`crate::merge`] — so the cluster's answers are a
//! pure function of the data, never of replica timing. The routing policy
//! around each shard call:
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
//! The edge is itself a serving tier: QCM/QSM responses are memoized in
//! sharded response caches and identical in-flight requests are
//! single-flighted through the same [`ReadThrough`] front the servers use,
//! keyed by the same normalized request keys — so coalescing composes across
//! tiers exactly as the PR-2 design intended.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use sapphire_core::exec;
use sapphire_core::qcm::{Completion, CompletionResult};
use sapphire_core::qsm::{top_with_answers, AlteredPosition, StructureSuggestion, TermAlternative};
use sapphire_core::{
    completion_request_key, run_request_key, run_request_key_tier, CacheStats, SteinerConfig,
};
use sapphire_endpoint::{
    query_fingerprint, Backoff, Endpoint, EndpointError, QueryService, ServiceError,
};
use sapphire_obs::{trace, MetricsHub, Obs, RequestMark, Stage, TraceScope};
use sapphire_server::coalesce::{ReadThrough, Served};
use sapphire_server::{run_cost, ServerError, ShardService, TransportStats};
use sapphire_sparql::{Projection, Query, QueryResult, SelectQuery, Solutions, TermPattern};

use crate::merge::{
    count_rows, count_shape, dedup_alternatives, merge_bindings, merge_completions,
    sort_alternatives,
};
use crate::topology::Cluster;

/// Tuning knobs of a [`ClusterRouter`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Router name (reported through the [`QueryService`] surface).
    pub name: String,
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
    /// Per-key waiter cap of the edge coalescers (`0` disables edge
    /// single-flight).
    pub coalesce_waiters_per_key: usize,
    /// Per-tenant work budget per accounting window at the *edge* tier
    /// (`None` = unlimited). Shard-side budgets alone cannot meter cluster
    /// traffic: an edge cache hit or coalesced follower never reaches a
    /// shard, so without an edge meter a quota-exhausted tenant could
    /// replay any cached request for free. Charged per request, before the
    /// edge caches — the same request-denominated posture the shards take.
    pub tenant_window_budget: Option<u64>,
    /// Edge work units charged per QCM completion request.
    pub completion_cost: u64,
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
/// ([`SteinerConfig::shed_budgets`]).
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
/// ([`sapphire_core::run_request_key_tier`]), so tier-0 and tier-N
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
            name: "sapphire-cluster".to_string(),
            hedge_after: Some(Duration::from_millis(50)),
            max_inflight_hedges: 32,
            backoff: Backoff::default(),
            cache_shards: 16,
            cache_capacity_per_shard: 4096,
            coalesce_waiters_per_key: 1024,
            tenant_window_budget: None,
            completion_cost: 1,
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
    /// The edge itself rejected the request before consulting any shard
    /// (per-tenant budget exhausted at the edge tier).
    EdgeRejected(ServerError),
    /// The query shape cannot be merged exactly from shard answers (e.g.
    /// GROUP BY over a pattern spanning shards).
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
            ClusterError::EdgeRejected(error) => write!(f, "edge rejected: {error}"),
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
            ClusterError::EdgeRejected(error) => error.is_rejection(),
            ClusterError::Unsupported(_) => false,
        }
    }

    fn into_service_error(self) -> ServiceError {
        match self {
            ClusterError::ShardUnavailable { last, .. } => last.into_service_error(),
            ClusterError::Shard { error, .. }
            | ClusterError::CrossShard { error }
            | ClusterError::EdgeRejected(error) => error.into_service_error(),
            ClusterError::Unsupported(m) => {
                ServiceError::Backend(EndpointError::Eval(format!("unsupported: {m}")))
            }
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
    /// admission slot on its replica until its scan completes). Shared
    /// (`Arc`) because the hedge thread itself decrements it when the scan
    /// finishes, win or lose.
    hedges_in_flight: Arc<AtomicU64>,
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
            hedges_in_flight: Arc::new(AtomicU64::new(0)),
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

/// The stateless request one shard replica serves. Cloneable so hedged
/// calls can hand an owned copy to a second replica's thread.
#[derive(Debug, Clone)]
enum ShardRequest {
    Complete {
        tenant: String,
        term: String,
        fetch: usize,
    },
    Run {
        tenant: String,
        query: SelectQuery,
        /// The QSM shed tier the edge requests (0 = full budget). A shard
        /// may deepen it under its own pressure, never shallow it.
        tier: usize,
        /// Remaining per-request deadline budget, when the edge runs a
        /// [`DegradePolicy`]: caps the shard's admission-queue wait and
        /// this call's retry loop.
        budget: Option<Duration>,
    },
    Raw {
        tenant: String,
        query: Query,
    },
}

/// The deadline budget a request carries, if any — read by the retry loop.
fn request_budget(req: &ShardRequest) -> Option<Duration> {
    match req {
        ShardRequest::Run { budget, .. } => *budget,
        _ => None,
    }
}

enum ShardReply {
    Completion(CompletionResult),
    Run(Arc<sapphire_server::RunPayload>),
    Raw(QueryResult),
}

fn call_replica(replica: &dyn ShardService, req: &ShardRequest) -> Result<ShardReply, ServerError> {
    match req {
        ShardRequest::Complete {
            tenant,
            term,
            fetch,
        } => replica
            .complete_top(tenant, term, *fetch)
            .map(ShardReply::Completion),
        ShardRequest::Run {
            tenant,
            query,
            tier,
            budget,
        } => replica
            .run_select_tiered(tenant, query, *tier, *budget)
            .map(ShardReply::Run),
        ShardRequest::Raw { tenant, query } => {
            replica.execute_raw(tenant, query).map(ShardReply::Raw)
        }
    }
}

/// True when a failure is scoped to the *requesting tenant* (a quota
/// rejection): an edge single-flight leader failing this way must not take
/// its followers down with it — their tenants may have plenty of budget
/// left, so they fall back to their own scatter instead.
fn tenant_scoped(e: &ClusterError) -> bool {
    matches!(
        e,
        ClusterError::Shard {
            error: ServerError::QuotaExhausted { .. },
            ..
        } | ClusterError::ShardUnavailable {
            last: ServerError::QuotaExhausted { .. },
            ..
        } | ClusterError::CrossShard {
            error: ServerError::QuotaExhausted { .. },
        } | ClusterError::EdgeRejected(ServerError::QuotaExhausted { .. })
    )
}

/// Typed back-pressure worth failing over: the replica is busy *now*; a
/// sibling (or a later retry) may not be. Transport failures
/// ([`ServerError::Unreachable`]) join the list with the wire boundary:
/// shard requests are stateless and idempotent, so a dead link is exactly
/// the case replica failover exists for. Work-budget timeouts and quota
/// rejections are deterministic for the same request and tenant, so
/// retrying them elsewhere just doubles the damage.
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
    EndpointError::from(e.clone().into_service_error())
        .retry_after()
        .unwrap_or_default()
}

/// One shard as the [`Endpoint`] a cross-shard bound join probes and
/// sub-queries: each query is one [`ClusterRouter::shard_rtt`] — the same
/// load-ordered, hedged, retried, counted and spanned shard call every
/// scatter makes — so the join keeps choosing a replica per query instead
/// of pinning whichever was least loaded (or alive) when the plan started.
struct ShardEndpoint<'a> {
    router: &'a ClusterRouter,
    shard: usize,
    tenant: &'a str,
}

impl Endpoint for ShardEndpoint<'_> {
    fn name(&self) -> &str {
        &self.router.config.name
    }

    fn execute_parsed(&self, query: &Query) -> Result<QueryResult, EndpointError> {
        let request = ShardRequest::Raw {
            tenant: self.tenant.to_string(),
            query: query.clone(),
        };
        match self.router.shard_rtt(self.shard, &request) {
            Ok(ShardReply::Raw(result)) => Ok(result),
            Ok(_) => unreachable!("a raw request yields a raw reply"),
            Err(e) => Err(e.into_service_error().into()),
        }
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

/// The sharded multi-tier edge router. See the module docs.
pub struct ClusterRouter {
    /// What the router actually routes over: one [`ShardService`] per
    /// replica per shard. In-process replicas and wire clients mix freely
    /// (though a deployment normally picks one).
    shards: Vec<Vec<Arc<dyn ShardService>>>,
    /// The in-process data tier, kept only when the router was built over
    /// one ([`new`](Self::new)/[`with_obs`](Self::with_obs)); a router over
    /// explicit shard services ([`over`](Self::over)) has none.
    cluster: Option<Cluster>,
    config: ClusterConfig,
    k: usize,
    completions: ReadThrough<MergedCompletion, ClusterError>,
    runs: ReadThrough<ClusterRunPayload, ClusterError>,
    /// Raw queries single-flight at the edge but are never edge-cached.
    raw: ReadThrough<QueryResult, ClusterError>,
    tenants: sapphire_server::admission::TenantBudgets,
    counters: Counters,
    obs: Arc<Obs>,
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
        let shard_count = shards.len();
        // Every replica of every shard shares one model config; the edge
        // presents the same top-k the shards compute.
        let k = shards[0][0].top_k();
        let (cache_shards, waiters) = (config.cache_shards, config.coalesce_waiters_per_key);
        let capacity = Some(config.cache_capacity_per_shard);
        ClusterRouter {
            tenants: sapphire_server::admission::TenantBudgets::new(config.tenant_window_budget),
            completions: ReadThrough::new("edge completion", cache_shards, capacity, waiters),
            runs: ReadThrough::new("edge run", cache_shards, capacity, waiters),
            raw: ReadThrough::new("edge service", cache_shards, None, waiters),
            counters: Counters::new(shard_count),
            obs,
            k,
            shards,
            cluster,
            config,
        }
    }

    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_replicas(&self, shard: usize) -> &[Arc<dyn ShardService>] {
        &self.shards[shard]
    }

    /// The router's observability handle (edge stage histograms, trace
    /// sampler, flight recorder).
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
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
        &self.config
    }

    /// Charge `cost` edge work units to `tenant` (typed
    /// [`ClusterError::EdgeRejected`] when the window budget is exhausted).
    /// Runs before the edge caches so a cached request still consumes quota
    /// — budgets are request-denominated, exactly as on the shards.
    fn charge(&self, tenant: &str, cost: u64) -> Result<(), ClusterError> {
        self.tenants
            .charge(tenant, cost)
            .map_err(ClusterError::EdgeRejected)
    }

    /// The edge work charged to `tenant` in the current window.
    pub fn tenant_usage(&self, tenant: &str) -> u64 {
        self.tenants.used(tenant)
    }

    /// Start a fresh edge budget accounting window.
    pub fn reset_budget_window(&self) {
        self.tenants.reset_window();
    }

    /// Observability snapshot.
    pub fn metrics(&self) -> ClusterMetrics {
        // Transport counters live on the replica clients, not the router:
        // they keep counting across requests (and across routers, if two
        // share clients), so the snapshot reads them live and sums.
        let mut transport = TransportStats::default();
        for replicas in &self.shards {
            for replica in replicas {
                transport.merge(&replica.transport_stats());
            }
        }
        ClusterMetrics {
            fanout_per_shard: self
                .counters
                .fanout
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            hedges_fired: self.counters.hedges_fired.load(Ordering::Relaxed),
            hedges_won: self.counters.hedges_won.load(Ordering::Relaxed),
            hedges_suppressed: self.counters.hedges_suppressed.load(Ordering::Relaxed),
            replica_retries: self.counters.replica_retries.load(Ordering::Relaxed),
            rejected_after_retry: self.counters.rejected_after_retry.load(Ordering::Relaxed),
            merges: self.counters.merges.load(Ordering::Relaxed),
            merge_depth_max: self.counters.merge_depth_max.load(Ordering::Relaxed),
            completion_cache: self.completions.cache_stats(),
            run_cache: self.runs.cache_stats(),
            edge_coalesced_hits: self.counters.edge_coalesced_hits.load(Ordering::Relaxed),
            edge_coalesce_leaders: self.counters.edge_coalesce_leaders.load(Ordering::Relaxed),
            degraded_runs: self.counters.degraded_runs.load(Ordering::Relaxed),
            degraded_by_tier: self
                .counters
                .degraded_by_tier
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
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
        self.obs.stage_sections(&mut hub);
        hub
    }

    /// Land one edge request in its metrics bucket (cache hits and bypasses
    /// have no edge counter).
    fn count_served(&self, served: Served) {
        let counter = match served {
            Served::LateHit | Served::Follower => &self.counters.edge_coalesced_hits,
            Served::Leader => &self.counters.edge_coalesce_leaders,
            Served::Hit | Served::Bypass => return,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    // --- QCM ---------------------------------------------------------------

    /// Cluster QCM: scatter the completion to every shard, merge the ranked
    /// lists into the canonical top-k. Edge-cached and edge-coalesced by the
    /// same normalized key the shards use.
    pub fn complete(&self, tenant: &str, term: &str) -> Result<ClusterCompletion, ClusterError> {
        let _req = self.obs.request_scope("complete", tenant);
        self.charge(tenant, self.config.completion_cost)?;
        let (served, result) = self.completions.serve(
            &self.obs,
            completion_request_key(term),
            |_| self.scatter_complete(tenant, term),
            |_| true,
            tenant_scoped,
        );
        self.count_served(served);
        result.map(|shared| shared.to_completion(served.cached()))
    }

    fn scatter_complete(&self, tenant: &str, term: &str) -> Result<MergedCompletion, ClusterError> {
        // Shard-local significance ranks cannot drive the global cut (they
        // are computed from shard-local in-degrees), so every shard-local
        // match travels and the merged top-k is exact.
        let replies = self.scatter(
            &ShardRequest::Complete {
                tenant: tenant.to_string(),
                term: term.to_string(),
                fetch: usize::MAX,
            },
            None,
        )?;
        let lists: Vec<Vec<Completion>> = replies
            .into_iter()
            .map(|reply| match reply {
                ShardReply::Completion(c) => c.suggestions,
                _ => unreachable!("complete scatter yields completion replies"),
            })
            .collect();
        let merge_depth = lists.len();
        self.counters.record_merge(merge_depth);
        let suggestions = {
            let mut t = self.obs.time(Stage::EdgeMerge);
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
    /// shard, merge answers exactly (union for subject stars, recount for
    /// the session COUNT shape, federated bound join for patterns spanning
    /// shards), merge suggestions deterministically, and re-prefetch every
    /// surviving suggestion's answers cluster-wide.
    pub fn run(&self, tenant: &str, query: &SelectQuery) -> Result<ClusterRun, ClusterError> {
        self.run_tiered(tenant, query, 0)
    }

    /// [`run`](Self::run) with a caller-imposed degradation-tier floor —
    /// the surface an upstream tier (another edge, a front-end shedding on
    /// its own queue) uses to propagate its shed decision downstream. The
    /// tier actually *requested* from shards is the deeper of the floor and
    /// this router's own [`DegradePolicy`] signals (queue pressure,
    /// remaining deadline); without a policy the floor alone is honored,
    /// and `run_tiered(t, q, 0)` is exactly [`run`](Self::run).
    pub fn run_tiered(
        &self,
        tenant: &str,
        query: &SelectQuery,
        floor: usize,
    ) -> Result<ClusterRun, ClusterError> {
        let _req = self.obs.request_scope("run", tenant);
        self.charge(tenant, run_cost(query.pattern.triples.len()))?;
        let started = Instant::now();
        // The edge chooses the tier it will request BEFORE any lookup: the
        // tier keys the edge cache and the coalescer, so tier-0 and tier-N
        // requests can never exchange payloads at the edge — the same
        // never-mix discipline the shards' tier-suffixed keys enforce. A
        // merge that came back degraded *deeper* than requested is
        // additionally refused by the insert veto below.
        let requested = self.requested_tier(floor, started);
        let (served, result) = self.runs.serve(
            &self.obs,
            run_request_key_tier(query, requested),
            |_| self.scatter_run(tenant, query, requested, started),
            // A payload that came back *deeper* than requested — a shard
            // shed on its own pressure beyond what the edge asked for — is
            // handed to the caller but never cached: its key would promise
            // more fidelity than its contents hold. (A payload *shallower*
            // than requested is fine: the query had no relaxation to shed,
            // so the "degraded" execution is byte-identical to the full one.)
            |payload| payload.tier <= requested,
            tenant_scoped,
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
        if let Some(policy) = &self.config.degrade {
            let pressure = self
                .shards
                .iter()
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
        self.config
            .degrade
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
        if count_shape(query).is_none() && (query.has_aggregates() || !query.group_by.is_empty()) {
            return Err(ClusterError::Unsupported(
                "aggregates beyond a single COUNT over a sharded pattern".into(),
            ));
        }
        // Scatter the *star-projected* query: shards return full bindings,
        // which is exactly what the exact merge needs (see `merge_bindings`)
        // — so the per-shard execution is paid once, not once for the run
        // and again for the answers. QSM candidate generation only reads
        // the pattern, and a candidate is an edit to whatever query it is
        // applied to, so the projection change costs the suggestions nothing.
        let star = star_pattern_query(query);
        let replies = self.scatter(
            &ShardRequest::Run {
                tenant: tenant.to_string(),
                query: star.clone(),
                tier: requested,
                budget: self.remaining_budget(started),
            },
            None,
        )?;
        let payloads: Vec<Arc<sapphire_server::RunPayload>> = replies
            .into_iter()
            .map(|reply| match reply {
                ShardReply::Run(p) => p,
                _ => unreachable!("run scatter yields run replies"),
            })
            .collect();
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
            let lists: Vec<Solutions> = payloads.iter().map(|p| p.answers.clone()).collect();
            self.counters.record_merge(lists.len());
            let mut t = self.obs.time(Stage::EdgeMerge);
            t.tag("run bindings");
            if let Some((var, distinct, alias)) = count_shape(query) {
                let rows = merge_bindings(&star, lists);
                count_rows(&rows, &var, distinct, &alias)
            } else {
                merge_bindings(query, lists)
            }
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
        self.counters.record_merge(candidate_lists.len());
        let mut candidates = {
            let mut t = self.obs.time(Stage::EdgeMerge);
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
            // passed over.)
            alternatives.extend(top_with_answers(query, kind, half, |asked| {
                self.cluster_answers(tenant, asked).map(Some)
            })?);
        }

        // Relaxations: dedup by relaxed-query identity, prefer complete
        // trees, keep the canonical best, re-prefetch cluster-wide.
        let mut relaxed: Vec<StructureSuggestion> = payloads
            .iter()
            .flat_map(|p| p.suggestions.relaxations.clone())
            .collect();
        relaxed.sort_by(|a, b| {
            b.relaxed.complete.cmp(&a.relaxed.complete).then_with(|| {
                run_request_key(&a.relaxed.query).cmp(&run_request_key(&b.relaxed.query))
            })
        });
        relaxed.dedup_by(|later, first| {
            run_request_key(&later.relaxed.query) == run_request_key(&first.relaxed.query)
        });
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
            self.counters.degraded_runs.fetch_add(1, Ordering::Relaxed);
            self.counters.degraded_by_tier[tier.min(SteinerConfig::MAX_TIER)]
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

    /// The exact cluster-wide answer set of one SELECT: targeted single-shard
    /// routing for ground-subject stars, scatter + full-binding merge for
    /// variable-subject stars, edge recount for the session COUNT shape, and
    /// a federated bound join over the shards for patterns spanning them.
    fn cluster_answers(
        &self,
        tenant: &str,
        query: &SelectQuery,
    ) -> Result<Solutions, ClusterError> {
        if let Some((var, distinct, alias)) = count_shape(query) {
            // Count over the *merged* full bindings: per-shard counts cannot
            // be summed for DISTINCT counts, so the edge counts once.
            let star = star_pattern_query(query);
            let lists = self.binding_lists(tenant, &star)?;
            self.counters.record_merge(lists.len());
            let mut t = self.obs.time(Stage::EdgeMerge);
            t.tag("count recount");
            let rows = merge_bindings(&star, lists);
            return Ok(count_rows(&rows, &var, distinct, &alias));
        }
        if query.has_aggregates() || !query.group_by.is_empty() {
            return Err(ClusterError::Unsupported(
                "aggregates beyond a single COUNT over a sharded pattern".into(),
            ));
        }
        let lists = self.binding_lists(tenant, &star_pattern_query(query))?;
        self.counters.record_merge(lists.len());
        let mut t = self.obs.time(Stage::EdgeMerge);
        t.tag("bindings");
        Ok(merge_bindings(query, lists))
    }

    /// Full-binding (`SELECT *`, no slice) row lists for a query's pattern,
    /// one per consulted shard. Scattering star projections is what lets
    /// [`merge_bindings`] deduplicate schema-slice replicas exactly (see its
    /// docs); the cross-shard bound join contributes one pre-joined list.
    fn binding_lists(
        &self,
        tenant: &str,
        star: &SelectQuery,
    ) -> Result<Vec<Solutions>, ClusterError> {
        if single_subject(star) {
            let target = ground_subject_shard(star, self.shard_count());
            let replies = self.scatter(
                &ShardRequest::Raw {
                    tenant: tenant.to_string(),
                    query: Query::Select(star.clone()),
                },
                target,
            )?;
            Ok(replies
                .into_iter()
                .map(|reply| match reply {
                    ShardReply::Raw(QueryResult::Solutions(s)) => s,
                    _ => Solutions::default(),
                })
                .collect())
        } else {
            Ok(vec![self.federated_rows(tenant, star)?])
        }
    }

    /// Cross-shard fallback: a federated bound join over the shards, each a
    /// [`ShardEndpoint`], via the partition-safe
    /// [`execute_partitioned`](sapphire_endpoint::federation::execute_partitioned)
    /// path (the covering-endpoint shortcut is unsound over shards of one
    /// dataset). Admission control and budgets still hold at every shard —
    /// the endpoints are the servers themselves.
    fn federated_rows(&self, tenant: &str, query: &SelectQuery) -> Result<Solutions, ClusterError> {
        let shards: Vec<ShardEndpoint<'_>> = (0..self.shard_count())
            .map(|shard| ShardEndpoint {
                router: self,
                shard,
                tenant,
            })
            .collect();
        let endpoints: Vec<&dyn Endpoint> = shards.iter().map(|s| s as &dyn Endpoint).collect();
        // The federated plan spans every shard, so a failure here cannot be
        // pinned on one shard index — it surfaces as the dedicated
        // cross-shard variant (still typed: back-pressure stays a
        // rejection).
        sapphire_endpoint::federation::execute_partitioned(&endpoints, query).map_err(|e| {
            ClusterError::CrossShard {
                error: sapphire_server::error::from_federation(e),
            }
        })
    }

    // --- Routing core ------------------------------------------------------

    /// Scatter one request: to every shard (`target == None`) or to a single
    /// home shard. Shards are called concurrently; the gather preserves
    /// shard order, so merges never depend on completion order.
    fn scatter(
        &self,
        req: &ShardRequest,
        target: Option<usize>,
    ) -> Result<Vec<ShardReply>, ClusterError> {
        if let Some(shard) = target {
            return Ok(vec![self.shard_rtt(shard, req)?]);
        }
        let shards = self.shard_count();
        if shards == 1 {
            return Ok(vec![self.shard_rtt(0, req)?]);
        }
        // Scatter tasks run on executor workers: hand each one the request's
        // trace context so its shard span parents under this request, and a
        // request mark so the shard server's own request scope stays inert.
        // One task per shard, zero thread spawns, and `run` collects in
        // task-index (= shard) order, so the gather never depends on
        // completion order.
        let ctx = trace::current_ctx();
        exec::global()
            .run(shards, |shard| {
                let _mark = RequestMark::new();
                let _scope = ctx.clone().map(|(trace, parent)| match parent {
                    Some(p) => TraceScope::enter_with_parent(trace, p),
                    None => TraceScope::enter(Some(trace)),
                });
                self.shard_rtt(shard, req)
            })
            .into_iter()
            .collect()
    }

    /// One whole shard call ([`call_shard`]: load-ordered replica choice,
    /// hedging, typed retry) timed under a `shard_rtt` span; per-attempt
    /// observations land inside `call_shard` so the histogram sees every
    /// round trip, hedges and retries included.
    fn shard_rtt(&self, shard: usize, req: &ShardRequest) -> Result<ShardReply, ClusterError> {
        let started = Instant::now();
        let span = trace::current_ctx().map(|(trace, parent)| {
            let (idx, _) = trace.open_span(Stage::ShardRtt.name(), parent, format!("shard{shard}"));
            (trace, idx)
        });
        let guard = span
            .as_ref()
            .map(|(trace, idx)| TraceScope::enter_with_parent(trace.clone(), *idx));
        let result = self.call_shard(shard, req);
        drop(guard);
        if let Some((trace, idx)) = span {
            trace.close_span(idx, started.elapsed().as_micros() as u64);
        }
        result
    }

    /// Replica indices of one shard in ascending admission-load order
    /// (ties by index) — the load-aware routing decision.
    fn replica_order(&self, shard: usize) -> Vec<usize> {
        let replicas = self.shard_replicas(shard);
        let mut order: Vec<usize> = (0..replicas.len()).collect();
        order.sort_by_key(|&i| {
            let (in_flight, queued) = replicas[i].admission_load();
            (in_flight + queued, i)
        });
        order
    }

    /// One shard call under the full routing policy: load-ordered replica
    /// choice, hedging, and typed bounded retry with failover — the retry
    /// loop itself is [`Backoff::run`].
    fn call_shard(&self, shard: usize, req: &ShardRequest) -> Result<ShardReply, ClusterError> {
        let order = self.replica_order(shard);
        // When the request carries a deadline budget, retrying stops once
        // the budget is spent — retrying a shard call nobody is still
        // waiting for only deepens the overload it is reacting to.
        let call_started = Instant::now();
        let budget = request_budget(req);
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
        &self,
        shard: usize,
        order: &[usize],
        attempt: u32,
        req: &ShardRequest,
    ) -> Result<ShardReply, ServerError> {
        let replicas = self.shard_replicas(shard);
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
            _ => call_replica(replicas[primary].as_ref(), req),
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
        &self,
        shard: usize,
        replicas: &[Arc<dyn ShardService>],
        primary: usize,
        secondary: usize,
        budget: Duration,
        req: &ShardRequest,
    ) -> Result<ShardReply, ServerError> {
        let (tx, rx) = mpsc::channel();
        let submit_call = |replica: usize, hedged: bool| -> exec::TaskHandle {
            let server = replicas[replica].clone();
            let req = req.clone();
            let tx = tx.clone();
            // The hedge task itself releases its in-flight token when the
            // scan completes — the gauge tracks scans (each pinning an
            // admission slot), not task lifetimes.
            let gauge = hedged.then(|| Arc::clone(&self.counters.hedges_in_flight));
            let job = move || {
                let result = call_replica(server.as_ref(), &req);
                if let Some(gauge) = gauge {
                    gauge.fetch_sub(1, Ordering::Relaxed);
                }
                let _ = tx.send((hedged, result));
            };
            exec::global().spawn(job)
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

    /// Hedged secondary calls running right now (each pinning an admission
    /// slot on its replica). Bounded by
    /// [`ClusterConfig::max_inflight_hedges`].
    pub fn hedges_in_flight(&self) -> u64 {
        self.counters.hedges_in_flight.load(Ordering::Relaxed)
    }
}

/// The raw SPARQL surface of the cluster: the router is itself a
/// [`QueryService`], so a further edge tier can federate over the whole
/// cluster through a [`ServiceEndpoint`](sapphire_endpoint::ServiceEndpoint) —
/// multi-tier topologies compose.
/// Identical in-flight queries coalesce at this tier by
/// [`query_fingerprint`], the same key every other tier uses.
impl QueryService for ClusterRouter {
    fn service_name(&self) -> &str {
        &self.config.name
    }

    fn execute_query(&self, tenant: &str, query: &Query) -> Result<QueryResult, ServiceError> {
        let _req = self.obs.request_scope("query", tenant);
        let pattern = match query {
            Query::Select(select) => &select.pattern,
            Query::Ask(pattern) => pattern,
        };
        self.charge(tenant, run_cost(pattern.triples.len()))
            .map_err(ClusterError::into_service_error)?;
        let execute = |tenant: &str, query: &Query| -> Result<QueryResult, ClusterError> {
            match query {
                Query::Select(select) => self
                    .cluster_answers(tenant, select)
                    .map(QueryResult::Solutions),
                Query::Ask(pattern) => {
                    let probe = SelectQuery::star(pattern.clone());
                    if single_subject(&probe) {
                        let target = ground_subject_shard(&probe, self.shard_count());
                        let replies = self.scatter(
                            &ShardRequest::Raw {
                                tenant: tenant.to_string(),
                                query: query.clone(),
                            },
                            target,
                        )?;
                        let any = replies
                            .iter()
                            .any(|r| matches!(r, ShardReply::Raw(QueryResult::Boolean(true))));
                        Ok(QueryResult::Boolean(any))
                    } else {
                        let rows = self.federated_rows(
                            tenant,
                            &SelectQuery {
                                limit: Some(1),
                                ..SelectQuery::star(pattern.clone())
                            },
                        )?;
                        Ok(QueryResult::Boolean(!rows.is_empty()))
                    }
                }
            }
        };
        let (served, result) = self.raw.serve(
            &self.obs,
            query_fingerprint(query),
            |_| execute(tenant, query),
            |_| true,
            |_| false,
        );
        self.count_served(served);
        result
            .map(Arc::unwrap_or_clone)
            .map_err(ClusterError::into_service_error)
    }
}

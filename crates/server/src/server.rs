//! The multi-session Sapphire server.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sapphire_core::qcm::CompletionResult;
use sapphire_core::qsm::QsmOutput;
use sapphire_core::session::{Modifiers, Session, SessionError, TripleInput};
use sapphire_core::{AnswerTable, CacheStats, KeyedRequest, PredictiveUserModel, RequestKey};
use sapphire_obs::{MetricsHub, Obs, Stage};
use sapphire_sparql::{Query, QueryResult, SelectQuery, Solutions};

use crate::admission::{AdmissionController, AdmissionPermit};
use crate::coalesce::{ReadThrough, Served};
use crate::error::{from_federation, ServerError};
use crate::registry::{OpenSession, SessionId, SessionRegistry};

/// Tuning knobs of a [`SapphireServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Service name: how a cluster edge names this replica
    /// ([`ShardService::shard_name`](crate::ShardService::shard_name)).
    pub name: String,
    /// Requests allowed to execute concurrently.
    pub max_in_flight: usize,
    /// Requests allowed to wait for a slot beyond `max_in_flight`; everything
    /// past this is rejected with [`ServerError::Overloaded`].
    pub max_queue_depth: usize,
    /// How long a queued request may wait before a typed
    /// [`ServerError::QueueTimeout`].
    pub queue_wait: Duration,
    /// Response-cache shards.
    pub cache_shards: usize,
    /// LRU capacity per response-cache shard.
    pub cache_capacity_per_shard: usize,
    /// Maximum concurrently open sessions.
    pub max_sessions: usize,
    /// Opt-in deadline-aware QSM budget shedding. When enabled, a run
    /// admitted while the admission queue is backed up executes its Steiner
    /// relaxation at a reduced budget tier from the
    /// [`SteinerConfig`](sapphire_core::SteinerConfig) ladder (queue
    /// non-empty → tier 1; queue at least half of
    /// [`max_queue_depth`](Self::max_queue_depth) → tier 2), trading
    /// relaxation depth for tail latency exactly when waiters are burning
    /// their deadlines. Degraded output is flagged
    /// ([`QsmOutput::degraded`]) and cached/coalesced under tier-suffixed
    /// keys, so it can never be served to a full-budget request. **Default
    /// off**: every run is full-tier and byte-identical to the single-user
    /// library, which is what the determinism oracles assert.
    pub qsm_shed_budget: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(8);
        ServerConfig {
            name: "sapphire".to_string(),
            max_in_flight: cores,
            max_queue_depth: cores * 4,
            queue_wait: Duration::from_millis(250),
            cache_shards: 16,
            cache_capacity_per_shard: 4096,
            max_sessions: 65_536,
            qsm_shed_budget: false,
        }
    }
}

impl ServerConfig {
    /// A small configuration for unit tests.
    pub fn for_tests() -> Self {
        ServerConfig {
            max_in_flight: 4,
            max_queue_depth: 8,
            queue_wait: Duration::from_millis(100),
            cache_shards: 4,
            cache_capacity_per_shard: 64,
            max_sessions: 256,
            ..Self::default()
        }
    }
}

/// Point-in-time observability snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerMetrics {
    /// QCM completion requests received.
    pub completion_requests: u64,
    /// Run (QSM) requests received.
    pub run_requests: u64,
    /// Raw queries received: [`SapphireServer::execute_query`] calls and a
    /// session's [`FrontRequest::Query`](crate::FrontRequest::Query).
    pub service_requests: u64,
    /// Requests rejected with [`ServerError::Overloaded`].
    pub rejected_overloaded: u64,
    /// Requests rejected with [`ServerError::QueueTimeout`].
    pub rejected_queue_timeout: u64,
    /// Requests served with a concurrent identical request's result instead
    /// of their own model scan (single-flight followers), across the QCM,
    /// QSM, and raw-query surfaces.
    pub coalesced_hits: u64,
    /// The QCM-surface subset of [`coalesced_hits`](Self::coalesced_hits).
    /// Such a request first logged a completion-cache *miss* (the cache
    /// genuinely had no entry yet) and was then served from the in-flight
    /// scan — so `completion_cache.hits + completion_coalesced_hits` over
    /// total lookups is the fraction of completion requests served without
    /// a model scan, independent of how requests happened to overlap.
    pub completion_coalesced_hits: u64,
    /// The QSM-run-surface subset of [`coalesced_hits`](Self::coalesced_hits)
    /// (same reading as
    /// [`completion_coalesced_hits`](Self::completion_coalesced_hits), for
    /// the run cache).
    pub run_coalesced_hits: u64,
    /// Model scans executed as single-flight leaders — for a burst of N
    /// identical cold requests this increments once, not N times. It is the
    /// total cold-path scan count.
    pub coalesce_leader_runs: u64,
    /// Admission slots handed directly from a finishing request to the
    /// oldest queued waiter (fair FIFO wakeup, no thundering herd).
    pub fifo_handoffs: u64,
    /// Run requests that *selected* a reduced QSM budget tier (cache hits
    /// on a tier-keyed entry included) — 0 unless
    /// [`ServerConfig::qsm_shed_budget`] is on *and* the queue backed up,
    /// or an upstream edge requested a tier through
    /// [`SapphireServer::run_select_tiered`]. The payload itself reports
    /// whether the reduced budget could actually affect it
    /// ([`QsmOutput::degraded`] stays false for queries with no relaxation
    /// to shed).
    pub qsm_degraded_runs: u64,
    /// Completion-cache counters.
    pub completion_cache: CacheStats,
    /// Run-cache counters.
    pub run_cache: CacheStats,
    /// Sessions currently open.
    pub open_sessions: usize,
}

#[derive(Debug, Default)]
struct Counters {
    completion_requests: AtomicU64,
    run_requests: AtomicU64,
    service_requests: AtomicU64,
    rejected_overloaded: AtomicU64,
    rejected_queue_timeout: AtomicU64,
    coalesced_hits: AtomicU64,
    coalesced_completion_hits: AtomicU64,
    coalesced_run_hits: AtomicU64,
    coalesce_leader_runs: AtomicU64,
    qsm_degraded_runs: AtomicU64,
}

/// Result of a server-side "Run" click.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// The query's answers, wrapped for table interaction.
    pub answers: AnswerTable,
    /// QSM suggestions (also retained server-side for
    /// [`SapphireServer::apply_alternative`]). Shared with the response
    /// cache and the session's committed copy: handing them to the caller is
    /// a pointer bump, not a deep copy of per-alternative prefetched answer
    /// sets — on a hot cached query that copy *was* the per-request cost.
    pub suggestions: Arc<QsmOutput>,
    /// True if the query executed (even with zero answers).
    pub executed: bool,
    /// The session's attempt count after this run.
    pub attempts: u32,
    /// True if answers and suggestions came from the response cache.
    pub cached: bool,
}

impl RunOutput {
    /// The session-facing shape of a served run; `attempts` is the session's
    /// count after the run's commit.
    pub(crate) fn new(run: QueryRun, attempts: u32) -> Self {
        RunOutput {
            answers: AnswerTable::new(run.payload.answers.clone()),
            suggestions: run.payload.suggestions.clone(),
            executed: run.payload.executed,
            attempts,
            cached: run.cached,
        }
    }
}

/// What one run produces as a pure function of the query — the payload the
/// run cache stores and single-flight leaders share, without any
/// session-specific bookkeeping. Suggestions are shared (`Arc`) because they
/// also land in `SessionEntry::last_suggestions`: committing them must be a
/// pointer bump, not a deep copy of per-alternative answer sets under the
/// session lock.
// `Clone` is a pointer bump on `suggestions` plus the answer table; a
// shard's reply to a cluster edge copies one while the run cache still
// holds the payload, since it adds the ranked candidates.
#[derive(Debug, Clone)]
pub struct RunPayload {
    /// The query's answers (empty if execution failed).
    pub answers: Solutions,
    /// True if the query executed (even with zero answers).
    pub executed: bool,
    /// QSM suggestions for the query.
    pub suggestions: Arc<QsmOutput>,
}

/// A session's rows as they stood at the pre-gate, and the session the run
/// commits back to.
#[derive(Debug)]
struct SessionRun {
    session: Arc<OpenSession>,
    triples: Vec<TripleInput>,
    modifiers: Modifiers,
    attempts: u32,
    generation: u64,
}

/// Who an admission-controlled request acts for.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Who<'a> {
    /// An interactive session: labelled by its owning tenant, and a run of
    /// its own rows commits back to it.
    Session(SessionId),
    /// A tenant with no session on this server — the stateless surface a
    /// cluster edge scatters over.
    Tenant(&'a str),
}

/// What an admission-controlled request asks of the model. The blocking
/// entry points borrow their arguments; the evented front-end owns them
/// (`'static`), because its request outlives the worker that parked it.
#[derive(Debug)]
pub(crate) enum What<'a> {
    /// QCM: complete `typed`, returning at most `k` suggestions.
    Complete { typed: Cow<'a, str>, k: usize },
    /// QSM + execution of `query`, or — `None` — of the requesting
    /// session's own rows, with the run committed back to that session.
    /// `tier_floor` lower-bounds the degradation tier.
    Run {
        query: Option<Cow<'a, SelectQuery>>,
        tier_floor: usize,
    },
    /// A raw parsed query on the federated backend.
    Raw { query: Cow<'a, Query> },
}

impl What<'_> {
    /// Stable label for traces and stage metrics.
    fn kind(&self) -> &'static str {
        match self {
            What::Complete { .. } => "complete",
            What::Run { .. } => "run",
            What::Raw { .. } => "query",
        }
    }
}

/// One admission-controlled request between the two halves of its path:
/// built (and counted) by [`SapphireServer::pre_gate`], carried across the
/// admission gate — on a parked thread's stack or in an evented ticket's
/// `PendingAdmission` — and consumed by [`SapphireServer::post_gate`].
#[derive(Debug)]
pub(crate) struct Request<'a> {
    what: What<'a>,
    /// Present iff a session asked to run its own rows.
    session: Option<SessionRun>,
    /// Remaining deadline budget: caps a parked queue wait. Evented
    /// requests come from interactive sessions and carry none.
    budget: Option<Duration>,
}

/// The answer to a [`Request`], one variant per [`What`].
#[derive(Debug)]
pub(crate) enum Reply {
    /// Answer to [`What::Complete`].
    Completion(CompletionResult),
    /// Answer to [`What::Run`]. `attempts` is the session's count after the
    /// commit, 0 for a sessionless run.
    Run { run: QueryRun, attempts: u32 },
    /// Answer to [`What::Raw`].
    Raw(QueryResult),
}

// `post_gate` answers each kind with its own variant, so a mismatch below is
// a bug in this file, not a condition a caller can cause.
impl Reply {
    fn completion(self) -> CompletionResult {
        match self {
            Reply::Completion(found) => found,
            other => panic!("a completion was answered {other:?}"),
        }
    }

    fn run(self) -> (QueryRun, u32) {
        match self {
            Reply::Run { run, attempts } => (run, attempts),
            other => panic!("a run was answered {other:?}"),
        }
    }

    fn raw(self) -> QueryResult {
        match self {
            Reply::Raw(result) => result,
            other => panic!("a raw query was answered {other:?}"),
        }
    }
}

/// Where a session run commits its attempt and suggestions: the session, and
/// the generation its rows were snapshotted at.
type RunCommit = (Arc<OpenSession>, u64);

/// A request past its counted cache lookup, between the two halves of
/// [`SapphireServer::post_gate`]: keyed, slot in hand, and not in
/// the cache. Carried on the stack by blocking callers and workers, and
/// across one thread hand-off by a front-end submitter, which may neither
/// wait in a flight nor scan (see [`crate::frontend`]).
#[derive(Debug)]
pub(crate) struct Missed {
    /// The response-cache and single-flight key the lookup missed on. It
    /// holds the request itself — the term, the built query and its tier,
    /// the raw query — so [`SapphireServer::work`] reads them back from it.
    key: RequestKey,
    /// Where a session run commits; `None` for every other request.
    commit: Option<RunCommit>,
    /// Held until [`SapphireServer::work`] is done with it, exactly as a
    /// granted ticket holds its slot while it waits for a worker.
    permit: AdmissionPermit,
}

/// The outcome of [`SapphireServer::lookup`].
#[derive(Debug)]
pub(crate) enum Lookup {
    /// Answered from the response cache; the slot is already released.
    Hit(Reply),
    /// Not cached: [`SapphireServer::work`] must finish it.
    Miss(Missed),
}

/// A run served through the sessionless [`SapphireServer::run_select`]
/// surface — what a cluster edge router scatters over shard replicas.
#[derive(Debug, Clone)]
pub struct QueryRun {
    /// True if this request ran no model scan of its own (response-cache hit
    /// or single-flight follower).
    pub cached: bool,
    /// The shared model-derived payload.
    pub payload: Arc<RunPayload>,
}

/// A concurrent, multi-session Sapphire query service.
///
/// One `SapphireServer` owns exactly one shared, immutable
/// [`PredictiveUserModel`] behind an [`Arc`] — the knowledge-graph endpoints,
/// the assembled cache (suffix tree + residual bins), the lexica. Sessions
/// are entries in a sharded registry holding only the user's typed state;
/// requests rehydrate a [`Session`] against the shared model for their
/// duration. Every model-touching request passes admission control first,
/// and QCM/QSM responses are memoized in a sharded bounded LRU.
pub struct SapphireServer {
    pum: Arc<PredictiveUserModel>,
    config: ServerConfig,
    registry: SessionRegistry,
    admission: Arc<AdmissionController>,
    completions: ReadThrough<CompletionResult, ServerError>,
    runs: ReadThrough<RunPayload, ServerError>,
    /// Raw federated queries single-flight but are never response-cached.
    raw: ReadThrough<QueryResult, ServerError>,
    counters: Counters,
    obs: Arc<Obs>,
}

/// Session-registry shards.
const REGISTRY_SHARDS: usize = 16;

impl SapphireServer {
    /// Stand up a server over a shared model.
    pub fn new(pum: Arc<PredictiveUserModel>, config: ServerConfig) -> Self {
        Self::with_obs(pum, config, Arc::new(Obs::new()))
    }

    /// [`new`](Self::new) with a caller-supplied observability hub — how a
    /// cluster shard, the evented front-end, and a bench harness share one
    /// set of stage histograms and one flight recorder across tiers.
    pub fn with_obs(pum: Arc<PredictiveUserModel>, config: ServerConfig, obs: Arc<Obs>) -> Self {
        pum.install_obs(obs.clone());
        let shards = config.cache_shards;
        let capacity = Some(config.cache_capacity_per_shard);
        SapphireServer {
            registry: SessionRegistry::new(REGISTRY_SHARDS, config.max_sessions),
            admission: Arc::new(AdmissionController::new(
                config.max_in_flight,
                config.max_queue_depth,
                config.queue_wait,
            )),
            completions: ReadThrough::new("completion", shards, capacity),
            runs: ReadThrough::new("run", shards, capacity),
            raw: ReadThrough::new("service", shards, None),
            counters: Counters::default(),
            pum,
            config,
            obs,
        }
    }

    /// The shared model (e.g. for registering its endpoints elsewhere).
    pub fn model(&self) -> &Arc<PredictiveUserModel> {
        &self.pum
    }

    /// The observability hub: per-stage latency histograms, the trace
    /// sampler, and the flight recorder.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// Admit through the gate with the wait time recorded into the
    /// [`Stage::AdmissionWait`] histogram (and the sampled trace, if any) —
    /// immediate grants record as ~0µs, queued grants as their park time.
    /// An optional per-request deadline `budget` caps the queue wait at
    /// `min(budget, queue_wait)`, so a request can never park longer than
    /// the deadline its caller is still willing to wait.
    fn admit_timed(&self, budget: Option<Duration>) -> Result<AdmissionPermit, ServerError> {
        let _t = self.obs.time(Stage::AdmissionWait);
        let wait = self.config.queue_wait;
        self.admission
            .admit_within(budget.map_or(wait, |b| b.min(wait)))
    }

    /// Land one served request in its metrics bucket. `surface_hits` is the
    /// per-surface subset of `coalesced_hits` (QCM and run have one).
    fn count_served(&self, served: Served, surface_hits: Option<&AtomicU64>) {
        let counter = match served {
            Served::Hit => return,
            // A late hit was served by the scan of a flight that beat this
            // one — counted as coalesced, so every request lands in exactly
            // one bucket.
            Served::LateHit | Served::Follower => {
                if let Some(hits) = surface_hits {
                    hits.fetch_add(1, Ordering::Relaxed);
                }
                &self.counters.coalesced_hits
            }
            Served::Leader => &self.counters.coalesce_leader_runs,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// The configuration in effect.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Open an interactive session for `tenant`.
    pub fn open_session(&self, tenant: &str) -> Result<SessionId, ServerError> {
        self.registry.open(tenant)
    }

    /// Close a session; returns true if it existed.
    pub fn close_session(&self, id: SessionId) -> bool {
        self.registry.close(id)
    }

    /// Replace one triple-pattern row of a session.
    pub fn set_row(
        &self,
        id: SessionId,
        idx: usize,
        input: TripleInput,
    ) -> Result<(), ServerError> {
        let session = self.registry.get(id)?;
        let mut entry = session.entry.lock().unwrap();
        if idx >= entry.triples.len() {
            entry.triples.resize_with(idx + 1, TripleInput::default);
        }
        entry.triples[idx] = input;
        entry.generation += 1;
        // Suggestions were derived from the rows just replaced; accepting
        // one now would splice its replacement into rows it never described.
        entry.last_suggestions = None;
        Ok(())
    }

    /// Replace a session's query modifiers.
    pub fn set_modifiers(&self, id: SessionId, modifiers: Modifiers) -> Result<(), ServerError> {
        let session = self.registry.get(id)?;
        let mut entry = session.entry.lock().unwrap();
        entry.modifiers = modifiers;
        entry.generation += 1;
        entry.last_suggestions = None;
        Ok(())
    }

    /// QCM: complete the term being typed in one of `id`'s text boxes.
    ///
    /// Admission-controlled; identical (normalized) terms across all
    /// sessions share one cached response, and a *burst* of identical
    /// not-yet-cached terms is single-flighted: one request scans the model
    /// as the leader, the rest receive its result ([`ServerMetrics`] counts
    /// them as `coalesced_hits`).
    pub fn complete(&self, id: SessionId, typed: &str) -> Result<CompletionResult, ServerError> {
        let what = What::Complete {
            typed: Cow::Borrowed(typed),
            k: self.pum.config().k,
        };
        self.serve_parked(Who::Session(id), what, None)
            .map(Reply::completion)
    }

    /// QCM for a tenant *without* a session and with an explicit result
    /// budget (see [`sapphire_core::qcm::QueryCompletion::complete_top`]) —
    /// the surface a cluster edge router scatters over shard replicas (the
    /// session state lives at the edge; shards see only stateless (tenant,
    /// term) requests). Identical admission control, caching, and coalescing
    /// as [`complete`](Self::complete); the budget is part of the
    /// response-cache/coalescing key.
    pub fn complete_top(
        &self,
        tenant: &str,
        typed: &str,
        k: usize,
    ) -> Result<CompletionResult, ServerError> {
        let typed = Cow::Borrowed(typed);
        let what = What::Complete { typed, k };
        self.serve_parked(Who::Tenant(tenant), what, None)
            .map(Reply::completion)
    }

    /// QSM + execution: press "Run" on session `id`.
    ///
    /// The session is snapshotted under its lock and the lock is *released*
    /// before admission, which may block for the full configured queue wait —
    /// concurrent `complete`/`set_row`/`apply_alternative` calls on the same
    /// session must never stall behind a queued run. The attempt counter and
    /// last suggestions are committed under a fresh lock afterwards, so
    /// concurrent runs of the same session each count; each builds its query
    /// from its own snapshot, and a run whose snapshot has been superseded
    /// (the generation moved while it executed) keeps its attempt but does
    /// not overwrite the newer state's suggestions. The model-derived payload
    /// is memoized across sessions by normalized query, and concurrent
    /// identical *cold* queries are additionally single-flighted: one leader
    /// scans, everyone else receives its result (see [`crate::coalesce`]).
    pub fn run(&self, id: SessionId) -> Result<RunOutput, ServerError> {
        let what = What::Run {
            query: None,
            tier_floor: 0,
        };
        let (run, attempts) = self.serve_parked(Who::Session(id), what, None)?.run();
        Ok(RunOutput::new(run, attempts))
    }

    /// QSM + execution for a tenant *without* a session: run an
    /// already-built query through admission, the response cache, and
    /// single-flight coalescing — the surface a cluster edge router scatters
    /// over shard replicas. The caller owns the session state (if
    /// any); the shard sees only the stateless (tenant, query) request, so
    /// there is no attempt counter or suggestion commit here.
    pub fn run_select(&self, tenant: &str, query: &SelectQuery) -> Result<QueryRun, ServerError> {
        self.run_select_tiered(tenant, query, 0, None)
    }

    /// [`run_select`](Self::run_select) with an upstream-requested
    /// degradation tier and an optional remaining deadline budget — the
    /// surface a cluster edge uses to make shedding a *router* decision
    /// instead of a per-shard discovery.
    ///
    /// The run executes at the **deeper** of the requested tier and this
    /// server's own pressure tier (see [`Self::shed_pressure_tier`]),
    /// clamped to the ladder: an edge request can lower fidelity but never
    /// force a full-budget run on a shard that is itself backed up. The
    /// requested tier is honored even when
    /// [`ServerConfig::qsm_shed_budget`] is off locally — the opt-in
    /// governs this server's *own* shed decision, not an upstream's — and
    /// flows through the same tier-keyed cache/coalescer discipline, so a
    /// degraded payload can never satisfy a tier-0 request. `budget`, when
    /// present, caps the admission-queue wait at
    /// `min(budget, queue_wait)`: a request whose edge deadline is nearly
    /// burned gives up its queue slot early with a typed rejection instead
    /// of completing work nobody is waiting for.
    pub fn run_select_tiered(
        &self,
        tenant: &str,
        query: &SelectQuery,
        requested_tier: usize,
        budget: Option<Duration>,
    ) -> Result<QueryRun, ServerError> {
        let what = What::Run {
            query: Some(Cow::Borrowed(query)),
            tier_floor: requested_tier,
        };
        self.serve_parked(Who::Tenant(tenant), what, budget)
            .map(|reply| reply.run().0)
    }

    /// Raw SPARQL on the model's federated backend for a tenant without a
    /// session, with this server's admission control enforced — the query a
    /// cluster edge sends a shard replica as
    /// [`WireRequest::Raw`](crate::WireRequest::Raw).
    ///
    /// Identical in-flight queries are single-flighted by their
    /// [`RequestKey`], so a burst of users asking the same question at an
    /// upstream tier costs this tier one federation execution — and because
    /// the key is the query itself, which travels unchanged, every further
    /// hop downstream coalesces the same way. Results are not
    /// response-cached (federated backends are not assumed immutable the way
    /// the shared model is), so the leader's typed failure is propagated to
    /// every coalesced follower rather than retried.
    pub fn execute_query(&self, tenant: &str, query: &Query) -> Result<QueryResult, ServerError> {
        let query = Cow::Borrowed(query);
        self.serve_parked(Who::Tenant(tenant), What::Raw { query }, None)
            .map(Reply::raw)
    }

    /// One request across the *parking* gate: the body of every blocking
    /// entry point above. The evented
    /// front-end ([`crate::frontend`]) runs the same two halves around its
    /// non-blocking gate, carrying the [`Request`] across the park.
    fn serve_parked(
        &self,
        who: Who<'_>,
        what: What<'_>,
        budget: Option<Duration>,
    ) -> Result<Reply, ServerError> {
        let request = self.pre_gate(who, what, budget)?;
        let tenant = match who {
            Who::Tenant(tenant) => Cow::Borrowed(tenant),
            // Read for the trace label only: a session closed since the
            // pre-gate goes unlabelled.
            Who::Session(id) => Cow::Owned(
                self.registry
                    .get(id)
                    .map(|open| open.entry.lock().unwrap().tenant.clone())
                    .unwrap_or_default(),
            ),
        };
        let _req = self.obs.request_scope(request.what.kind(), &tenant);
        let permit = self.count_rejection(self.admit_timed(request.budget))?;
        self.post_gate(request, permit)
    }

    /// The **pre-gate** half: what a request does before it may wait for an
    /// execution slot — once, for both admission styles. Counts it, checks
    /// that a session is open, and snapshots a session run.
    ///
    /// The count comes before the session lookup: a burst of stale-session
    /// requests must stay visible in the request denominator. The lookup
    /// comes before the gate: a request on a closed session answers
    /// [`ServerError::UnknownSession`] without taking (or being refused) an
    /// admission slot. And a run's rows are snapshotted here, under a
    /// session lock that is released before any admission wait, so an edit
    /// made while the run queues supersedes it (see the commit in
    /// [`post_gate`](Self::post_gate)).
    pub(crate) fn pre_gate<'a>(
        &self,
        who: Who<'a>,
        what: What<'a>,
        budget: Option<Duration>,
    ) -> Result<Request<'a>, ServerError> {
        let received = match what {
            What::Complete { .. } => &self.counters.completion_requests,
            What::Run { .. } => &self.counters.run_requests,
            What::Raw { .. } => &self.counters.service_requests,
        };
        received.fetch_add(1, Ordering::Relaxed);
        let session = match who {
            Who::Tenant(_) => None,
            Who::Session(id) => {
                let open = self.registry.get(id)?;
                let own_rows = matches!(what, What::Run { query: None, .. });
                own_rows.then(|| {
                    let state = open.entry.lock().unwrap();
                    SessionRun {
                        session: open.clone(),
                        triples: state.triples.clone(),
                        modifiers: state.modifiers.clone(),
                        attempts: state.attempts,
                        generation: state.generation,
                    }
                })
            }
        };
        Ok(Request {
            what,
            session,
            budget,
        })
    }

    /// The **post-gate** half: what a request does with an execution slot in
    /// hand, however the slot was acquired (by parking in
    /// [`serve_parked`](Self::serve_parked), or by the front-end claiming an
    /// evented ticket): [`lookup`](Self::lookup), then — on a miss —
    /// [`work`](Self::work). A front-end submitter runs the two halves on
    /// two threads; everyone else calls this.
    pub(crate) fn post_gate(
        &self,
        request: Request<'_>,
        permit: AdmissionPermit,
    ) -> Result<Reply, ServerError> {
        match self.lookup(request, permit)? {
            Lookup::Hit(reply) => Ok(reply),
            Lookup::Miss(missed) => self.work(missed),
        }
    }

    /// The first half of [`post_gate`](Self::post_gate): everything up to
    /// and including the one counted response-cache lookup. Builds a session
    /// run's query, picks the tier, computes the key and looks it up; a hit
    /// commits a session run and replies. It never waits and never scans the
    /// model.
    ///
    /// Admission came first because a shed request must cost nothing, and
    /// even query building resolves keyword predicates against the shared
    /// cache — so a session run's query is built here, not pre-gate. A cache
    /// hit still passes admission: its key requires the built query.
    pub(crate) fn lookup(
        &self,
        request: Request<'_>,
        permit: AdmissionPermit,
    ) -> Result<Lookup, ServerError> {
        let Request { what, session, .. } = request;
        match what {
            What::Complete { typed, k } => {
                let key = RequestKey::completion(&typed, k);
                Ok(match self.completions.lookup(&self.obs, &key) {
                    Some(hit) => Lookup::Hit(Reply::Completion(Arc::unwrap_or_clone(hit))),
                    None => Lookup::Miss(Missed {
                        key,
                        commit: None,
                        permit,
                    }),
                })
            }
            What::Run { query, tier_floor } => {
                let (query, commit) = match (query, session) {
                    (Some(query), _) => (query, None),
                    (None, Some(s)) => {
                        let query = Session::resume(&self.pum, s.triples, s.modifiers, s.attempts)
                            .build_query()?;
                        (Cow::Owned(query), Some((s.session, s.generation)))
                    }
                    // Neither a built query nor a session's rows to build
                    // one from.
                    (None, None) => return Err(SessionError::EmptyQuery.into()),
                };
                // The deeper of the caller's floor (a cluster edge's
                // requested tier) and this server's own pressure signal,
                // clamped to the ladder.
                let tier = tier_floor
                    .max(self.qsm_tier())
                    .min(sapphire_core::SteinerConfig::MAX_TIER);
                if tier > 0 {
                    self.counters
                        .qsm_degraded_runs
                        .fetch_add(1, Ordering::Relaxed);
                }
                // The key carries `tier`, so a degraded-budget run can only
                // ever hit, lead, or follow *other degraded runs of the same
                // tier* — full-budget and degraded requests never exchange
                // payloads in either direction. A session's freshly built
                // query moves into it.
                let key = RequestKey::run(query.into_owned(), tier);
                Ok(match self.runs.lookup(&self.obs, &key) {
                    Some(payload) => {
                        let run = QueryRun {
                            cached: true,
                            payload,
                        };
                        Lookup::Hit(commit_run(run, permit, commit))
                    }
                    None => Lookup::Miss(Missed {
                        key,
                        commit,
                        permit,
                    }),
                })
            }
            What::Raw { query } => {
                // Raw results are never response-cached (see
                // `execute_query`), so this surface always misses.
                Ok(Lookup::Miss(Missed {
                    key: RequestKey::raw(query.into_owned()),
                    commit: None,
                    permit,
                }))
            }
        }
    }

    /// The second half of [`post_gate`](Self::post_gate): lead or follow
    /// the key's flight, drop the permit and commit a session run.
    /// Single-flight followers hold their slot while they wait, exactly as
    /// if they were running the scan themselves.
    ///
    /// A burst of identical cold requests (many users pressing Run on the
    /// same question at once) costs one model scan; a run's `cached` flag
    /// stays an honest "this request ran no scan of its own": true for cache
    /// hits and followers, false for the scanning leader.
    pub(crate) fn work(&self, missed: Missed) -> Result<Reply, ServerError> {
        let Missed {
            key,
            commit,
            permit,
        } = missed;
        // The flight takes the key; the work reads the request from this
        // second handle on it. `permit` is held to the end of the call
        // unless an arm has work to do without it.
        let request = key.clone();
        match request.request() {
            KeyedRequest::Completion { term, k } => {
                let (served, result) = self.completions.serve_miss(
                    &self.obs,
                    key,
                    || {
                        let _t = self.obs.time(Stage::QcmScan);
                        Ok(self.pum.complete_top(term, *k))
                    },
                    |_| true,
                );
                self.count_served(served, Some(&self.counters.coalesced_completion_hits));
                result.map(|found| Reply::Completion(Arc::unwrap_or_clone(found)))
            }
            KeyedRequest::Run { query, tier } => {
                let scan = || Ok(self.scan(query, *tier));
                let (served, result) = self.runs.serve_miss(&self.obs, key, scan, |_| true);
                self.count_served(served, Some(&self.counters.coalesced_run_hits));
                let run = QueryRun {
                    cached: served.cached(),
                    payload: result?,
                };
                Ok(commit_run(run, permit, commit))
            }
            KeyedRequest::Raw(query) => {
                let (served, result) = self.raw.serve_miss(
                    &self.obs,
                    key,
                    || {
                        self.pum
                            .federation()
                            .execute_parsed(query)
                            .map_err(from_federation)
                    },
                    |_| true,
                );
                self.count_served(served, None);
                result.map(|found| Reply::Raw(Arc::unwrap_or_clone(found)))
            }
        }
    }

    /// The shed tier this server's *current* admission backlog argues for,
    /// independent of the [`ServerConfig::qsm_shed_budget`] opt-in: empty
    /// queue → 0, backlog below half of
    /// [`max_queue_depth`](ServerConfig::max_queue_depth) → 1, else 2. This
    /// is the pressure probe a cluster edge reads when *it* owns the
    /// shedding decision (router-requested tiers); the local decision
    /// (`qsm_tier`) applies the same ladder behind the opt-in.
    pub fn shed_pressure_tier(&self) -> usize {
        let (_, queued) = self.admission.load();
        if queued == 0 {
            0
        } else if queued * 2 < self.config.max_queue_depth {
            1
        } else {
            2
        }
    }

    /// The QSM budget tier the *next* run should execute at, from the
    /// admission queue's current depth — sampled after the permit grant, so
    /// the decision reflects the backlog the server still faces while this
    /// run holds a slot. Always 0 (full budget) unless
    /// [`ServerConfig::qsm_shed_budget`] opted in; an upstream-requested
    /// tier ([`Self::run_select_tiered`]) is applied on top by the caller.
    fn qsm_tier(&self) -> usize {
        if !self.config.qsm_shed_budget {
            return 0;
        }
        self.shed_pressure_tier()
    }

    /// Accept the `alt_index`-th term alternative from `id`'s last run:
    /// updates the session's boxes and returns the prefetched answers
    /// (§4's "almost-instantaneous" accept — no re-execution, so no
    /// admission charge either).
    pub fn apply_alternative(
        &self,
        id: SessionId,
        alt_index: usize,
    ) -> Result<AnswerTable, ServerError> {
        let open = self.registry.get(id)?;
        let mut entry = open.entry.lock().unwrap();
        let suggestions = entry
            .last_suggestions
            .clone()
            .ok_or(ServerError::UnknownSuggestion {
                index: alt_index,
                available: 0,
            })?;
        let alt =
            suggestions
                .alternatives
                .get(alt_index)
                .ok_or(ServerError::UnknownSuggestion {
                    index: alt_index,
                    available: suggestions.alternatives.len(),
                })?;
        let mut session = Session::resume(
            &self.pum,
            entry.triples.clone(),
            entry.modifiers.clone(),
            entry.attempts,
        );
        let answers = session.apply_alternative(alt);
        entry.triples = session.triples;
        entry.generation += 1;
        // The remaining alternatives described the pre-accept rows; a second
        // accept must come from a fresh run.
        entry.last_suggestions = None;
        Ok(answers)
    }

    /// Observability snapshot.
    pub fn metrics(&self) -> ServerMetrics {
        ServerMetrics {
            completion_requests: self.counters.completion_requests.load(Ordering::Relaxed),
            run_requests: self.counters.run_requests.load(Ordering::Relaxed),
            service_requests: self.counters.service_requests.load(Ordering::Relaxed),
            rejected_overloaded: self.counters.rejected_overloaded.load(Ordering::Relaxed),
            rejected_queue_timeout: self.counters.rejected_queue_timeout.load(Ordering::Relaxed),
            coalesced_hits: self.counters.coalesced_hits.load(Ordering::Relaxed),
            completion_coalesced_hits: self
                .counters
                .coalesced_completion_hits
                .load(Ordering::Relaxed),
            run_coalesced_hits: self.counters.coalesced_run_hits.load(Ordering::Relaxed),
            coalesce_leader_runs: self.counters.coalesce_leader_runs.load(Ordering::Relaxed),
            fifo_handoffs: self.admission.handoffs(),
            qsm_degraded_runs: self.counters.qsm_degraded_runs.load(Ordering::Relaxed),
            completion_cache: self.completions.cache_stats(),
            run_cache: self.runs.cache_stats(),
            open_sessions: self.registry.len(),
        }
    }

    /// Export every counter surface this server owns — request/rejection/
    /// coalescing counters, both response caches, the model's Steiner
    /// neighborhood and alternative-sweep caches, and the per-stage latency
    /// histograms — as one [`MetricsHub`], readable typed or as JSON.
    pub fn export_metrics(&self) -> MetricsHub {
        let m = self.metrics();
        let mut hub = MetricsHub::new();
        hub.section("server")
            .field("completion_requests", m.completion_requests)
            .field("run_requests", m.run_requests)
            .field("service_requests", m.service_requests)
            .field("rejected_overloaded", m.rejected_overloaded)
            .field("rejected_queue_timeout", m.rejected_queue_timeout)
            .field("coalesced_hits", m.coalesced_hits)
            .field("completion_coalesced_hits", m.completion_coalesced_hits)
            .field("run_coalesced_hits", m.run_coalesced_hits)
            .field("coalesce_leader_runs", m.coalesce_leader_runs)
            .field("fifo_handoffs", m.fifo_handoffs)
            .field("qsm_degraded_runs", m.qsm_degraded_runs)
            .field("open_sessions", m.open_sessions);
        hub.section("completion_cache")
            .field("hits", m.completion_cache.hits)
            .field("misses", m.completion_cache.misses)
            .field("evictions", m.completion_cache.evictions)
            .field("hit_ratio", m.completion_cache.hit_ratio());
        hub.section("run_cache")
            .field("hits", m.run_cache.hits)
            .field("misses", m.run_cache.misses)
            .field("evictions", m.run_cache.evictions)
            .field("hit_ratio", m.run_cache.hit_ratio());
        let relax = self.pum.relax_cache_stats();
        hub.section("relax_cache")
            .field("hits", relax.hits)
            .field("misses", relax.misses)
            .field("fills", relax.fills)
            .field("evictions", relax.evictions)
            .field("queries_executed", relax.queries_executed)
            .field("queries_saved", relax.queries_saved);
        let alts = self.pum.alt_cache_stats();
        hub.section("alt_cache")
            .field("literal_hits", alts.literal.hits)
            .field("literal_misses", alts.literal.misses)
            .field("literal_evictions", alts.literal.evictions)
            .field("predicate_hits", alts.predicate.hits)
            .field("predicate_misses", alts.predicate.misses)
            .field("predicate_evictions", alts.predicate.evictions);
        self.obs.stage_sections(&mut hub);
        hub
    }

    /// Current `(in_flight, queued)` admission snapshot — the cheap load
    /// probe a cluster router consults to pick the least-loaded replica.
    pub fn admission_load(&self) -> (usize, usize) {
        self.admission.load()
    }

    /// Occupy one execution slot without running any request — the
    /// operational drain hook. While the returned permit is held it counts
    /// in [`admission_load`](Self::admission_load) like any in-flight
    /// request; hold enough permits and the server sheds everything typed,
    /// which is how maintenance drains a replica and how tests saturate one
    /// artificially.
    pub fn hold_slot(&self) -> Result<AdmissionPermit, ServerError> {
        self.admission.admit()
    }

    /// The admission gate itself — for in-crate machinery (the evented
    /// front-end) that acquires grants without parking.
    pub(crate) fn admission_gate(&self) -> &Arc<AdmissionController> {
        &self.admission
    }

    /// An open session: what the evented front-end resolves a submission's
    /// id to, once, and carries from then on.
    pub(crate) fn session(&self, id: SessionId) -> Result<Arc<OpenSession>, ServerError> {
        self.registry.get(id)
    }

    /// Record a typed rejection produced outside the blocking surfaces (the
    /// evented front-end rejects with `Overloaded`/`QueueTimeout` from its
    /// own loop) so [`ServerMetrics`] stays one honest ledger.
    pub(crate) fn note_rejection(&self, e: &ServerError) {
        let _ = self.count_rejection::<()>(Err(e.clone()));
    }

    /// Request keys with a live single-flight execution right now, summed
    /// across the QCM, QSM, and raw-query coalescers — how many distinct
    /// scans this server is running at this instant. Cheap enough for load
    /// probes and bench reports to poll.
    pub fn coalesce_occupancy(&self) -> usize {
        self.completions.occupancy() + self.runs.occupancy() + self.raw.occupancy()
    }

    /// Execute the model scan for a built query (the expensive part a
    /// single-flight leader runs on behalf of its followers), with the
    /// Steiner relaxation at `tier`.
    fn scan(&self, query: &SelectQuery, tier: usize) -> RunPayload {
        let mut timer = self.obs.time(Stage::QsmScan);
        if tier > 0 {
            // Allocates only on degraded runs, which are rare by design.
            timer.tag(format!("tier{tier}"));
        }
        if let Some(trace) = sapphire_obs::trace::current() {
            let label = if tier == 0 {
                "full".to_string()
            } else {
                format!("tier{tier}")
            };
            trace.set_tier(&label);
        }
        let outcome = self.pum.run_tiered(query, tier);
        drop(timer);
        RunPayload {
            answers: outcome.answers,
            executed: outcome.executed,
            suggestions: Arc::new(outcome.suggestions),
        }
    }

    fn count_rejection<T>(&self, result: Result<T, ServerError>) -> Result<T, ServerError> {
        if let Err(e) = &result {
            match e {
                ServerError::Overloaded { .. } => {
                    self.counters
                        .rejected_overloaded
                        .fetch_add(1, Ordering::Relaxed);
                }
                ServerError::QueueTimeout { .. } => {
                    self.counters
                        .rejected_queue_timeout
                        .fetch_add(1, Ordering::Relaxed);
                }
                _ => {}
            }
        }
        result
    }
}

/// The tail of a served run, hit or miss: give the slot back, then commit
/// the session's attempt and suggestions (a sessionless run has no `commit`
/// and reports 0 attempts).
fn commit_run(run: QueryRun, permit: AdmissionPermit, commit: Option<RunCommit>) -> Reply {
    drop(permit);
    let attempts = commit.map_or(0, |(session, generation)| {
        let mut entry = session.entry.lock().unwrap();
        entry.attempts += 1;
        // Commit suggestions only if they still describe the session's
        // current rows; a superseded run must not clobber a newer run's
        // suggestions with ones the user can no longer see.
        if entry.generation == generation {
            entry.last_suggestions = Some(run.payload.suggestions.clone());
        }
        entry.attempts
    });
    Reply::Run { run, attempts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapphire_core::prelude::*;
    use sapphire_core::InitMode;
    use std::sync::Mutex;

    fn pum() -> Arc<PredictiveUserModel> {
        let graph = sapphire_sparql::turtle::parse(
            r#"res:JFK a dbo:Person ; dbo:surname "Kennedy"@en ; dbo:name "John F. Kennedy"@en ."#,
        )
        .unwrap();
        let ep: Arc<dyn Endpoint> = Arc::new(LocalEndpoint::new(
            "dbpedia",
            graph,
            EndpointLimits::warehouse(),
        ));
        Arc::new(
            PredictiveUserModel::initialize(
                vec![ep],
                Lexicon::dbpedia_default(),
                SapphireConfig::for_tests(),
                InitMode::Federated,
            )
            .unwrap(),
        )
    }

    #[test]
    fn queued_run_does_not_hold_the_session_lock() {
        let config = ServerConfig {
            max_in_flight: 1,
            max_queue_depth: 1,
            queue_wait: Duration::from_millis(500),
            ..ServerConfig::for_tests()
        };
        let server = Arc::new(SapphireServer::new(pum(), config));
        let session = server.open_session("alice").unwrap();
        server
            .set_row(session, 0, TripleInput::new("?p", "surname", "Kennedy"))
            .unwrap();
        // Occupy the only execution slot so the run below queues in admission.
        let permit = server.admission.admit().unwrap();
        let queued_run = {
            let server = server.clone();
            std::thread::spawn(move || server.run(session))
        };
        while server.admission.load().1 == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // The queued run must wait *without* the session entry lock: other
        // requests touching the same session proceed immediately.
        let t = std::time::Instant::now();
        server
            .set_row(session, 1, TripleInput::new("?p", "name", "?n"))
            .unwrap();
        assert!(
            t.elapsed() < Duration::from_millis(100),
            "set_row stalled behind a queued run for {:?}",
            t.elapsed()
        );
        drop(permit);
        let out = queued_run
            .join()
            .unwrap()
            .expect("run admitted after release");
        assert!(out.executed);
        assert_eq!(out.attempts, 1);
    }

    #[test]
    fn cold_identical_completion_burst_scans_once() {
        const THREADS: usize = 16;
        // Enough concurrency that the whole burst can be in flight at once —
        // coalescing must be exercised by genuine concurrency, not masked by
        // admission serialization.
        let config = ServerConfig {
            max_in_flight: THREADS,
            max_queue_depth: THREADS,
            ..ServerConfig::for_tests()
        };
        let server = Arc::new(SapphireServer::new(pum(), config));
        let barrier = Arc::new(std::sync::Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|i| {
                let server = server.clone();
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    let session = server.open_session(&format!("t{i}")).unwrap();
                    barrier.wait();
                    server.complete(session, "Kenn").unwrap()
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for r in &results[1..] {
            assert_eq!(
                r.suggestions, results[0].suggestions,
                "every request sees the one scan's result"
            );
        }
        let m = server.metrics();
        // The heart of single-flight: however the 16 threads interleave —
        // coalesced followers, response-cache hits for stragglers, or a
        // leader that found the cache filled — the model is scanned once.
        assert_eq!(m.coalesce_leader_runs, 1, "exactly one model scan");
        assert_eq!(
            m.coalesced_hits + m.completion_cache.hits + m.coalesce_leader_runs,
            THREADS as u64,
            "every request is a leader, follower, or cache hit"
        );
    }

    #[test]
    fn cold_identical_run_burst_scans_once() {
        const THREADS: usize = 8;
        let config = ServerConfig {
            max_in_flight: THREADS,
            max_queue_depth: THREADS,
            ..ServerConfig::for_tests()
        };
        let server = Arc::new(SapphireServer::new(pum(), config));
        let barrier = Arc::new(std::sync::Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|i| {
                let server = server.clone();
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    // Distinct sessions, identical rows: the normalized query
                    // key is shared, so the burst coalesces across sessions.
                    let session = server.open_session(&format!("t{i}")).unwrap();
                    server
                        .set_row(session, 0, TripleInput::new("?p", "surname", "Kennedy"))
                        .unwrap();
                    barrier.wait();
                    server.run(session).unwrap()
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for r in &results {
            assert!(r.executed);
            assert_eq!(r.answers.total_rows(), results[0].answers.total_rows());
            assert_eq!(r.attempts, 1, "attempt counting stays per-session");
        }
        let m = server.metrics();
        assert_eq!(m.coalesce_leader_runs, 1, "exactly one model scan");
        assert!(
            results.iter().filter(|r| !r.cached).count() <= 1,
            "at most the scanning leader reports an uncached run"
        );
    }

    #[test]
    fn degraded_and_full_runs_never_share_a_cache_entry() {
        // One execution slot + a deep queue: with shedding opted in, a run
        // admitted while others still wait must execute at a reduced tier,
        // and a run admitted once the queue drained must get the full tier —
        // from a *separate* cache entry, in both directions.
        let config = ServerConfig {
            max_in_flight: 1,
            max_queue_depth: 8,
            queue_wait: Duration::from_secs(5),
            qsm_shed_budget: true,
            ..ServerConfig::for_tests()
        };
        let server = Arc::new(SapphireServer::new(pum(), config));
        let permit = server.admission.admit().unwrap();
        let runs: Vec<_> = (0..3)
            .map(|i| {
                let server = server.clone();
                std::thread::spawn(move || {
                    // Identical rows across sessions: one normalized query,
                    // so any key mixing would be visible immediately. Two
                    // literal rows, so the Steiner relaxation applies and a
                    // reduced tier genuinely marks the output degraded.
                    let session = server.open_session(&format!("t{i}")).unwrap();
                    server
                        .set_row(session, 0, TripleInput::new("?p", "surname", "Kennedys"))
                        .unwrap();
                    server
                        .set_row(
                            session,
                            1,
                            TripleInput::new("?p", "name", "John F. Kennedy"),
                        )
                        .unwrap();
                    server.run(session).unwrap()
                })
            })
            .collect();
        while server.admission.load().1 < 3 {
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(permit);
        let outputs: Vec<RunOutput> = runs.into_iter().map(|h| h.join().unwrap()).collect();

        // FIFO drain: the first two runs executed with a non-empty queue
        // behind them (tier 1 — one scan, one degraded-entry cache hit), the
        // last with the queue empty (tier 0 — its own full scan).
        let degraded = outputs.iter().filter(|o| o.suggestions.degraded).count();
        assert_eq!(degraded, 2, "two degraded, one full: {outputs:?}");
        let m = server.metrics();
        assert_eq!(m.qsm_degraded_runs, 2);
        assert_eq!(
            m.coalesce_leader_runs, 2,
            "one scan per tier: the tiers never coalesced onto one flight"
        );
        for o in &outputs {
            assert_eq!(o.suggestions.degraded, o.suggestions.tier > 0);
            // Degraded or not, the request itself was served.
            assert!(o.executed);
        }

        // The regression this pins: with the queue drained, an identical
        // request selects tier 0 and must hit the FULL entry — a shared key
        // would hand it the cached degraded payload.
        let session = server.open_session("later").unwrap();
        server
            .set_row(session, 0, TripleInput::new("?p", "surname", "Kennedys"))
            .unwrap();
        server
            .set_row(
                session,
                1,
                TripleInput::new("?p", "name", "John F. Kennedy"),
            )
            .unwrap();
        let fresh = server.run(session).unwrap();
        assert!(fresh.cached, "tier-0 entry already cached by the third run");
        assert!(
            !fresh.suggestions.degraded,
            "a full-budget request must never see a degraded payload"
        );
        assert_eq!(server.metrics().coalesce_leader_runs, 2, "no new scan");
    }

    #[test]
    fn shedding_disabled_by_default_never_degrades() {
        let config = ServerConfig {
            max_in_flight: 1,
            max_queue_depth: 8,
            queue_wait: Duration::from_secs(5),
            ..ServerConfig::for_tests()
        };
        assert!(!config.qsm_shed_budget, "shedding is opt-in");
        let server = Arc::new(SapphireServer::new(pum(), config));
        let permit = server.admission.admit().unwrap();
        let runs: Vec<_> = (0..3)
            .map(|i| {
                let server = server.clone();
                std::thread::spawn(move || {
                    let session = server.open_session(&format!("t{i}")).unwrap();
                    server
                        .set_row(session, 0, TripleInput::new("?p", "surname", "Kennedy"))
                        .unwrap();
                    server.run(session).unwrap()
                })
            })
            .collect();
        while server.admission.load().1 < 3 {
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(permit);
        for out in runs.into_iter().map(|h| h.join().unwrap()) {
            assert!(!out.suggestions.degraded);
            assert_eq!(out.suggestions.tier, 0);
        }
        assert_eq!(server.metrics().qsm_degraded_runs, 0);
    }

    #[test]
    fn requested_tier_is_honored_without_the_local_opt_in() {
        // `qsm_shed_budget` stays off: the server's *own* shed decision is
        // disabled, but an upstream-requested tier must still be honored —
        // and stay tier-keyed, so the degraded payload can never leak into
        // a later tier-0 request.
        let server = SapphireServer::new(pum(), ServerConfig::for_tests());
        assert!(!server.config().qsm_shed_budget);
        let query = Session::resume(
            server.model(),
            vec![
                TripleInput::new("?p", "surname", "Kennedys"),
                TripleInput::new("?p", "name", "John F. Kennedy"),
            ],
            Modifiers::default(),
            0,
        )
        .build_query()
        .unwrap();
        let degraded = server.run_select_tiered("t", &query, 1, None).unwrap();
        assert!(degraded.payload.suggestions.degraded);
        assert_eq!(degraded.payload.suggestions.tier, 1);
        let full = server.run_select("t", &query).unwrap();
        assert!(
            !full.payload.suggestions.degraded,
            "tier-0 request served from the tier-1 entry"
        );
        assert!(!full.cached, "the full run needed its own scan");
        // Deeper-than-ladder requests clamp instead of inventing tiers.
        let clamped = server
            .run_select_tiered("t", &query, usize::MAX, None)
            .unwrap();
        assert_eq!(
            clamped.payload.suggestions.tier,
            sapphire_core::SteinerConfig::MAX_TIER
        );
        assert_eq!(server.metrics().qsm_degraded_runs, 2);
    }

    #[test]
    fn exhausted_deadline_budget_rejects_typed_instead_of_parking() {
        let config = ServerConfig {
            max_in_flight: 1,
            queue_wait: Duration::from_secs(5),
            ..ServerConfig::for_tests()
        };
        let server = SapphireServer::new(pum(), config);
        let query = Session::resume(
            server.model(),
            vec![TripleInput::new("?p", "surname", "Kennedy")],
            Modifiers::default(),
            0,
        )
        .build_query()
        .unwrap();
        let slot = server.hold_slot().unwrap();
        let started = std::time::Instant::now();
        // No remaining edge budget: the request may not park for the
        // configured 5s wait — it must come back (nearly) immediately with a
        // typed saturation rejection.
        let out = server.run_select_tiered("t", &query, 0, Some(Duration::ZERO));
        assert!(
            matches!(out, Err(ServerError::QueueTimeout { .. })),
            "{out:?}"
        );
        assert!(started.elapsed() < Duration::from_secs(2));
        assert_eq!(server.metrics().rejected_queue_timeout, 1);
        drop(slot);
        assert!(server
            .run_select_tiered("t", &query, 0, Some(Duration::from_secs(1)))
            .is_ok());
    }

    #[test]
    fn shed_pressure_tier_tracks_the_backlog() {
        let config = ServerConfig {
            max_in_flight: 1,
            max_queue_depth: 8,
            queue_wait: Duration::from_secs(5),
            ..ServerConfig::for_tests()
        };
        let server = Arc::new(SapphireServer::new(pum(), config));
        assert_eq!(server.shed_pressure_tier(), 0, "idle server sheds nothing");
        let permit = server.admission.admit().unwrap();
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let server = server.clone();
                std::thread::spawn(move || drop(server.admission.admit()))
            })
            .collect();
        while server.admission.load().1 < 4 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // 4 queued of max 8: exactly the half-full boundary → tier 2.
        assert_eq!(server.shed_pressure_tier(), 2);
        drop(permit);
        for w in waiters {
            w.join().unwrap();
        }
        assert_eq!(server.shed_pressure_tier(), 0, "drained queue recovers");
    }

    /// An endpoint that holds the first query after it is armed: it reports
    /// the query on `entered` and answers once `release` yields.
    struct GatedEndpoint {
        inner: LocalEndpoint,
        armed: std::sync::atomic::AtomicBool,
        entered: Mutex<std::sync::mpsc::Sender<()>>,
        release: Mutex<std::sync::mpsc::Receiver<()>>,
    }

    impl Endpoint for GatedEndpoint {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn execute_parsed(
            &self,
            query: &Query,
        ) -> Result<QueryResult, sapphire_endpoint::EndpointError> {
            if self.armed.swap(false, Ordering::SeqCst) {
                self.entered.lock().unwrap().send(()).unwrap();
                self.release.lock().unwrap().recv().unwrap();
            }
            self.inner.execute_parsed(query)
        }
    }

    /// A front-end submitter whose counted lookup misses while another
    /// request leads the same key's flight never joins it: the miss is
    /// handed over and a worker waits in the flight.
    #[test]
    fn frontend_submitter_hands_a_miss_behind_a_live_flight_to_a_worker() {
        use crate::frontend::{FrontRequest, FrontResponse, Frontend, FrontendConfig};
        use std::sync::mpsc;

        let (entered_tx, entered) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        let graph = sapphire_sparql::turtle::parse(
            r#"res:JFK a dbo:Person ; dbo:surname "Kennedy"@en ; dbo:name "John F. Kennedy"@en ."#,
        )
        .unwrap();
        let endpoint = Arc::new(GatedEndpoint {
            inner: LocalEndpoint::new("dbpedia", graph, EndpointLimits::warehouse()),
            armed: false.into(),
            entered: Mutex::new(entered_tx),
            release: Mutex::new(release_rx),
        });
        let pum = Arc::new(
            PredictiveUserModel::initialize(
                vec![endpoint.clone() as Arc<dyn Endpoint>],
                Lexicon::dbpedia_default(),
                SapphireConfig::for_tests(),
                InitMode::Federated,
            )
            .unwrap(),
        );
        let server = Arc::new(SapphireServer::new(pum, ServerConfig::for_tests()));
        let fe = Frontend::new(server.clone(), FrontendConfig::for_tests());
        let surname = TripleInput::new("?p", "surname", "Kennedy");
        let run = |tenant: &str| {
            let s = fe.open_session(tenant).unwrap();
            server.set_row(s, 0, surname.clone()).unwrap();
            let (tx, rx) = mpsc::channel();
            fe.submit(s, FrontRequest::Run, Box::new(move |r| tx.send(r).unwrap()))
                .unwrap();
            rx
        };
        let cached = |answer: mpsc::Receiver<Result<FrontResponse, ServerError>>| match answer
            .recv()
            .unwrap()
            .expect("the run succeeds")
        {
            FrontResponse::Run(out) => out.cached,
            other => panic!("unexpected response {other:?}"),
        };

        endpoint.armed.store(true, Ordering::SeqCst);
        let leader = run("alice");
        entered.recv().unwrap();
        // The leader's scan is stuck in the endpoint. Had this submitter
        // joined its flight, `submit` would not come back before the
        // release below — which comes after it.
        let follower = run("bob");
        let query = Session::resume(server.model(), vec![surname], Modifiers::default(), 0)
            .build_query()
            .unwrap();
        let key = RequestKey::run(query, 0);
        while server.runs.waiting(&key) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        release.send(()).unwrap();
        assert!(!cached(leader), "the leader scanned");
        assert!(cached(follower), "the follower did not");

        let m = server.metrics();
        assert_eq!((m.coalesce_leader_runs, m.run_coalesced_hits), (1, 1));
        assert_eq!((m.run_cache.hits, m.run_cache.misses), (0, 2));
        let waited = server.obs.stage_snapshot(Stage::CoalesceWait).count();
        assert_eq!(waited, 1, "answered as a follower, in the flight");
        let f = fe.shutdown();
        assert_eq!(
            (f.handed_over, f.answered_by_worker, f.answered_inline),
            (2, 2, 0)
        );
    }

    #[test]
    fn superseded_run_does_not_commit_stale_suggestions() {
        let config = ServerConfig {
            max_in_flight: 1,
            max_queue_depth: 4,
            queue_wait: Duration::from_secs(2),
            ..ServerConfig::for_tests()
        };
        let server = Arc::new(SapphireServer::new(pum(), config));
        let session = server.open_session("alice").unwrap();
        // "Kennedys" matches nothing, so its run yields a "Kennedy"
        // alternative — exactly the payload that must NOT survive the commit.
        server
            .set_row(session, 0, TripleInput::new("?p", "surname", "Kennedys"))
            .unwrap();
        let permit = server.admission.admit().unwrap();
        let stale_run = {
            let server = server.clone();
            std::thread::spawn(move || server.run(session))
        };
        while server.admission.load().1 == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Supersede the queued run's snapshot while it waits for a slot.
        server
            .set_row(session, 0, TripleInput::new("?p", "surname", "Kennedy"))
            .unwrap();
        drop(permit);
        let out = stale_run.join().unwrap().expect("stale run still served");
        // The run's own output reflects its own snapshot…
        assert_eq!(out.attempts, 1);
        assert!(
            out.suggestions
                .alternatives
                .iter()
                .any(|a| a.replacement == "Kennedy"),
            "stale run produced its snapshot's suggestions"
        );
        // …but its suggestions were not committed against the newer rows:
        // accepting alternative 0 would splice "Kennedy"-for-"Kennedys" into
        // a session that no longer says "Kennedys".
        assert!(matches!(
            server.apply_alternative(session, 0),
            Err(ServerError::UnknownSuggestion { available: 0, .. })
        ));
        // A run of the current state commits normally.
        let fresh = server.run(session).unwrap();
        assert!(fresh.executed);
        assert_eq!(fresh.attempts, 2);
    }
}

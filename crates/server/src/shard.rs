//! The shard-replica surface a cluster edge routes over.
//!
//! Before the wire transport existed, the cluster router held
//! `Arc<SapphireServer>` replicas and every "shard call" was a function
//! call. [`ShardService`] is that surface as a trait: everything the edge
//! needs from one replica — one stateless [`WireRequest`] (QCM completion,
//! tiered QSM run or raw query) answered by one [`call`](ShardService::call),
//! the cheap load probes behind load-aware routing and router-requested
//! degradation, and the top-k the model computes — with two
//! implementations:
//!
//! * [`SapphireServer`] itself (the in-process topology, still the oracle
//!   every wire-mode answer is compared against), which answers through
//!   the provided `call`: the one interpreter of a request, over the typed
//!   methods below, and
//! * `sapphire_wire::WireClient`, which overrides `call` with one round
//!   trip of the length-prefixed binary protocol to a replica behind a TCP
//!   socket — whose `WireServer` answers it with the replica's own `call` —
//!   and maps every transport failure onto the typed
//!   [`ServerError::Unreachable`] so the router's hedging/backoff/failover
//!   machinery fires unchanged.
//!
//! A new protocol field therefore goes into one enum, one codec arm and
//! `call`. A reply of the wrong kind is a typed `protocol:` error, checked
//! in one place ([`WireReply::into_completion`] and its siblings).
//!
//! The load probes deserve a note: the router reads them on *every* scatter
//! (replica ordering, shed-tier selection), so an implementation must answer
//! them without a network round trip. The wire client piggybacks the
//! replica's `(in_flight, queued, pressure_tier)` on every reply frame and
//! serves the probes from that cache — slightly stale, exactly like any real
//! load balancer's view of its backends.

use std::sync::Arc;
use std::time::Duration;

use sapphire_core::qcm::CompletionResult;
use sapphire_sparql::{Query, QueryResult, SelectQuery};

use crate::error::ServerError;
use crate::server::{RunPayload, SapphireServer};

/// One stateless edge→shard request — what the cluster router sends every
/// replica, in process and (encoded by `sapphire_wire`'s codec) over the
/// socket — with the degradation tier and the remaining deadline budget
/// travelling with the query.
#[derive(Debug, Clone, PartialEq)]
pub enum WireRequest {
    /// QCM completion: the shard's top `fetch`.
    Complete {
        /// Requesting tenant (billing identity at the shard).
        tenant: String,
        /// The typed prefix.
        term: String,
        /// How many suggestions to return.
        fetch: usize,
    },
    /// Stateless QSM run with edge-requested degradation.
    Run {
        /// Requesting tenant.
        tenant: String,
        /// The query to run.
        query: SelectQuery,
        /// Degradation tier the edge requests (shards may deepen, never
        /// shallow, exactly as in-process).
        tier: usize,
        /// Deadline budget remaining at the edge when the scatter started.
        budget: Option<Duration>,
    },
    /// Raw query execution (the federated bound-join building block).
    Raw {
        /// Requesting tenant.
        tenant: String,
        /// The query.
        query: Query,
    },
}

/// One shard→edge reply body (the success arm; errors travel as a
/// [`ServerError`]).
#[derive(Debug, Clone)]
pub enum WireReply {
    /// Reply to [`WireRequest::Complete`].
    Completion(CompletionResult),
    /// Reply to [`WireRequest::Run`], owned: the edge merges out of it.
    Run(RunPayload),
    /// Reply to [`WireRequest::Raw`].
    Raw(QueryResult),
}

impl WireReply {
    /// The completion, or a typed `protocol:` error for a reply of another
    /// kind.
    pub fn into_completion(self) -> Result<CompletionResult, ServerError> {
        match self {
            WireReply::Completion(c) => Ok(c),
            other => Err(other.mismatch("Completion")),
        }
    }

    /// The run payload, or a typed `protocol:` error for a reply of another
    /// kind.
    pub fn into_run(self) -> Result<RunPayload, ServerError> {
        match self {
            WireReply::Run(p) => Ok(p),
            other => Err(other.mismatch("Run")),
        }
    }

    /// The raw query result, or a typed `protocol:` error for a reply of
    /// another kind.
    pub fn into_raw(self) -> Result<QueryResult, ServerError> {
        match self {
            WireReply::Raw(r) => Ok(r),
            other => Err(other.mismatch("Raw")),
        }
    }

    fn mismatch(&self, want: &str) -> ServerError {
        let got = match self {
            WireReply::Completion(_) => "Completion",
            WireReply::Run(_) => "Run",
            WireReply::Raw(_) => "Raw",
        };
        ServerError::Backend(format!("protocol: expected {want} reply, got {got}"))
    }
}

/// Cumulative transport-level counters of one remote replica connection
/// (all zero for in-process replicas, which have no transport).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Successful connection establishments (dial + handshake).
    pub connects: u64,
    /// Connections re-established after an IO failure broke the previous
    /// one — the subset of [`connects`](Self::connects) that repaired a
    /// known-bad link rather than grew the pool.
    pub reconnects: u64,
    /// Calls that failed on the transport (connect refused, reset, read
    /// deadline, short read) and surfaced as [`ServerError::Unreachable`].
    pub io_errors: u64,
    /// Frames rejected by the codec (bad magic, oversized length, bad tag)
    /// — protocol bugs, surfaced non-retryable, never silently skipped.
    pub corrupt_frames: u64,
}

impl TransportStats {
    /// Field-wise sum — how a router aggregates its replicas' counters.
    pub fn merge(&mut self, other: &TransportStats) {
        self.connects += other.connects;
        self.reconnects += other.reconnects;
        self.io_errors += other.io_errors;
        self.corrupt_frames += other.corrupt_frames;
    }
}

/// One shard replica, as the cluster edge sees it. See the module docs.
pub trait ShardService: Send + Sync {
    /// The replica's service name (e.g. `"cluster-s0r1"`), identifying the
    /// exact process typed errors came from.
    fn shard_name(&self) -> String;

    /// The top-k the replica's model computes — every replica of every
    /// shard shares one model config, and the edge presents the same k.
    fn top_k(&self) -> usize;

    /// QCM: the replica's top `k` completions, in the QCM's rank order.
    fn complete_top(
        &self,
        tenant: &str,
        typed: &str,
        k: usize,
    ) -> Result<CompletionResult, ServerError>;

    /// Stateless QSM + execution with an edge-requested degradation tier
    /// and an optional remaining deadline budget.
    fn run_select_tiered(
        &self,
        tenant: &str,
        query: &SelectQuery,
        tier: usize,
        budget: Option<Duration>,
    ) -> Result<Arc<RunPayload>, ServerError>;

    /// Raw query execution (the federated bound-join building block).
    fn execute_raw(&self, tenant: &str, query: &Query) -> Result<QueryResult, ServerError>;

    /// Answer one request — the only interpreter of a [`WireRequest`]: the
    /// typed method it names, its reply wrapped (a run's payload is taken
    /// out of its `Arc`; a [`SapphireServer`] builds a fresh one per reply,
    /// with its ranked candidates attached). A socket-backed replica
    /// overrides this with one round trip.
    fn call(&self, req: &WireRequest) -> Result<WireReply, ServerError> {
        match req {
            WireRequest::Complete {
                tenant,
                term,
                fetch,
            } => self
                .complete_top(tenant, term, *fetch)
                .map(WireReply::Completion),
            WireRequest::Run {
                tenant,
                query,
                tier,
                budget,
            } => self
                .run_select_tiered(tenant, query, *tier, *budget)
                .map(|payload| WireReply::Run(Arc::unwrap_or_clone(payload))),
            WireRequest::Raw { tenant, query } => {
                self.execute_raw(tenant, query).map(WireReply::Raw)
            }
        }
    }

    /// Current `(in_flight, queued)` admission snapshot — must be cheap
    /// (no round trip); see the module docs.
    fn admission_load(&self) -> (usize, usize);

    /// The shed tier this replica's admission backlog argues for — must be
    /// cheap (no round trip).
    fn shed_pressure_tier(&self) -> usize;

    /// `"local"` for in-process replicas, `"wire"` for socket-backed ones —
    /// tags `shard_rtt` observations so a histogram never silently mixes
    /// function calls with real round trips.
    fn transport(&self) -> &'static str {
        "local"
    }

    /// Transport counters (all zero for in-process replicas).
    fn transport_stats(&self) -> TransportStats {
        TransportStats::default()
    }
}

impl ShardService for SapphireServer {
    fn shard_name(&self) -> String {
        self.config().name.clone()
    }

    fn top_k(&self) -> usize {
        self.model().config().k
    }

    fn complete_top(
        &self,
        tenant: &str,
        typed: &str,
        k: usize,
    ) -> Result<CompletionResult, ServerError> {
        SapphireServer::complete_top(self, tenant, typed, k)
    }

    fn run_select_tiered(
        &self,
        tenant: &str,
        query: &SelectQuery,
        tier: usize,
        budget: Option<Duration>,
    ) -> Result<Arc<RunPayload>, ServerError> {
        // The model's output carries no candidates (see
        // `QsmOutput::candidates`); the edge's merge needs them, so each
        // reply — response-cache hit or miss — builds them here, once.
        let run = SapphireServer::run_select_tiered(self, tenant, query, tier, budget)?;
        let mut payload = Arc::unwrap_or_clone(run.payload);
        Arc::make_mut(&mut payload.suggestions).candidates = self.model().qsm().candidates(query);
        Ok(Arc::new(payload))
    }

    fn execute_raw(&self, tenant: &str, query: &Query) -> Result<QueryResult, ServerError> {
        SapphireServer::execute_query(self, tenant, query)
    }

    fn admission_load(&self) -> (usize, usize) {
        SapphireServer::admission_load(self)
    }

    fn shed_pressure_tier(&self) -> usize {
        SapphireServer::shed_pressure_tier(self)
    }
}

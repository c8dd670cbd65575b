//! The evented serving front-end: thousands of open sessions on a small,
//! fixed worker pool.
//!
//! The paper's workload is interactive — users hold sessions open for
//! minutes and issue requests in sub-second bursts between long think
//! times. A thread-per-request tier spends its capacity *parked*: every
//! open session that is waiting for admission, or simply idle, pins a
//! stack. This module inverts that:
//!
//! * a **session** is a lightweight state machine (`session::SessionState`)
//!   — a FIFO queue of submitted requests plus a phase tag — never a
//!   thread;
//! * the **reactor** (`reactor::Reactor`) holds the sessions that have
//!   runnable work in one ready queue;
//! * a **worker pool** of `FrontendConfig::workers` threads pulls ready
//!   sessions and drives [`SapphireServer`] request execution to
//!   completion;
//! * **admission never parks a worker**: a full gate hands back an
//!   [`AdmissionTicket`](crate::admission::AdmissionTicket) and the
//!   *session* waits in `AwaitingGrant` — the queue wait lives in the
//!   reactor, not in a blocked thread
//!   ([`AdmissionController::admit_evented`](crate::admission::AdmissionController::admit_evented)).
//!
//! Per-session ordering is exactly submission order (one worker operates on
//! a session at a time), so the evented tier answers byte-for-byte like the
//! thread-per-request tier — pinned by the root `tests/frontend.rs` oracle.
//!
//! The front-end can also drive any other [`QueryService`] for raw queries
//! ([`FrontRequest::Query`]) — in particular a cluster edge router — so one
//! event loop fronts a single server and a sharded topology alike
//! ([`Frontend::with_raw_service`]).

pub(crate) mod reactor;
pub mod session;
mod worker;

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};

use sapphire_endpoint::QueryService;

use crate::error::ServerError;
use crate::registry::SessionId;
use crate::server::SapphireServer;

pub use session::{FrontRequest, FrontResponse, ResponseCallback};

use session::{Phase, SessionState};

/// Tuning knobs of a [`Frontend`].
#[derive(Debug, Clone)]
pub struct FrontendConfig {
    /// Worker threads driving request execution. This is the front-end's
    /// whole thread budget — it does not grow with open sessions.
    pub workers: usize,
    /// Requests one session may have queued (its typing-burst backlog);
    /// submissions beyond it are rejected typed with
    /// [`ServerError::Overloaded`]. The bound is per-session back-pressure:
    /// a single runaway client cannot grow the front-end's memory.
    pub session_queue_depth: usize,
    /// Ready-queue depth beyond which the front-end sheds fidelity on its
    /// own initiative: dispatched runs carry degradation-tier floor 1 when
    /// the reactor's ready queue is deeper than this, floor 2 beyond twice
    /// it. The floor rides the server's `run_tiered` surface, so tier-0
    /// requests keep their no-shed guarantee. `None` (the default) leaves
    /// shedding to the server's own admission-queue signal.
    pub shed_ready_threshold: Option<usize>,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        FrontendConfig {
            workers: std::thread::available_parallelism()
                .map(usize::from)
                .unwrap_or(8)
                .min(8),
            session_queue_depth: 64,
            shed_ready_threshold: None,
        }
    }
}

impl FrontendConfig {
    /// A small configuration for unit tests.
    pub fn for_tests() -> Self {
        FrontendConfig {
            workers: 2,
            session_queue_depth: 64,
            shed_ready_threshold: None,
        }
    }
}

/// Point-in-time front-end observability snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontendMetrics {
    /// Requests accepted by [`Frontend::submit`].
    pub submitted: u64,
    /// Responses delivered (every accepted request produces exactly one).
    pub completed: u64,
    /// Admission-controlled requests granted a free slot immediately.
    pub immediate_grants: u64,
    /// Admission-controlled requests that parked their session on a queued
    /// ticket instead of parking a worker thread.
    pub ticket_waits: u64,
    /// Parked sessions resumed by a grant callback.
    pub ticket_grants: u64,
    /// Grants that arrived in the same instant the deadline sweep fired —
    /// the slot is used, never bounced.
    pub late_grants: u64,
    /// Parked sessions settled to [`ServerError::QueueTimeout`].
    pub queue_timeouts: u64,
    /// Runs dispatched with a non-zero degradation-tier floor because the
    /// reactor's ready queue exceeded
    /// [`FrontendConfig::shed_ready_threshold`].
    pub shed_dispatches: u64,
    /// Sessions the front-end currently tracks.
    pub open_sessions: usize,
    /// Sessions in the ready queue right now.
    pub ready: usize,
    /// Sessions parked awaiting an admission grant right now.
    pub parked: usize,
    /// High-water mark of the ready queue.
    pub peak_ready: usize,
}

#[derive(Debug, Default)]
pub(crate) struct MetricCounters {
    submitted: AtomicU64,
    completed: AtomicU64,
    pub(crate) immediate_grants: AtomicU64,
    pub(crate) ticket_waits: AtomicU64,
    pub(crate) ticket_grants: AtomicU64,
    pub(crate) late_grants: AtomicU64,
    pub(crate) queue_timeouts: AtomicU64,
    pub(crate) shed_dispatches: AtomicU64,
}

/// The raw-query execution target.
pub(crate) enum RawTarget {
    /// The session server itself (evented admission applies).
    Server,
    /// An external service — e.g. a cluster edge router — with its own
    /// admission tiers.
    External(Arc<dyn QueryService>),
}

pub(crate) struct Shared {
    pub(crate) server: Arc<SapphireServer>,
    pub(crate) raw: RawTarget,
    pub(crate) config: FrontendConfig,
    pub(crate) reactor: reactor::Reactor,
    sessions: RwLock<HashMap<u64, Arc<Mutex<SessionState>>>>,
    pub(crate) counters: MetricCounters,
}

impl Shared {
    pub(crate) fn session(&self, id: u64) -> Option<Arc<Mutex<SessionState>>> {
        self.sessions.read().unwrap().get(&id).cloned()
    }

    pub(crate) fn forget_session(&self, id: u64) {
        self.sessions.write().unwrap().remove(&id);
    }

    /// Admission grant callback target: a parked session becomes ready.
    pub(crate) fn on_grant(&self, id: u64) {
        let Some(state_arc) = self.session(id) else {
            return;
        };
        let mut st = state_arc.lock().unwrap();
        if st.phase == Phase::AwaitingGrant {
            st.phase = Phase::Queued;
            drop(st);
            self.reactor.schedule(id);
        }
        // Any other phase: a worker owns the session right now and its
        // re-park path double-checks the ticket, so the wake is not lost.
    }

    /// Deliver one response (counts it; every accepted request passes
    /// through here exactly once).
    pub(crate) fn reply(
        &self,
        respond: ResponseCallback,
        result: Result<FrontResponse, ServerError>,
    ) {
        self.counters.completed.fetch_add(1, Ordering::Relaxed);
        respond(result);
    }
}

/// The evented front-end: see the module docs.
pub struct Frontend {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Frontend {
    /// Stand a front-end over `server`; raw queries execute on the server
    /// itself.
    pub fn new(server: Arc<SapphireServer>, config: FrontendConfig) -> Self {
        Self::build(server, RawTarget::Server, config)
    }

    /// Stand a front-end whose raw-query requests execute on `raw` — any
    /// [`QueryService`], e.g. a cluster edge router — while session
    /// requests (QCM/QSM) stay on `server`. One event loop, multiple tiers.
    pub fn with_raw_service(
        server: Arc<SapphireServer>,
        raw: Arc<dyn QueryService>,
        config: FrontendConfig,
    ) -> Self {
        Self::build(server, RawTarget::External(raw), config)
    }

    fn build(server: Arc<SapphireServer>, raw: RawTarget, config: FrontendConfig) -> Self {
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            server,
            raw,
            config,
            reactor: reactor::Reactor::new(),
            sessions: RwLock::new(HashMap::new()),
            counters: MetricCounters::default(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("sapphire-fe-{i}"))
                    .spawn(move || worker::worker_loop(shared))
                    .expect("worker thread spawns")
            })
            .collect();
        Frontend {
            shared,
            workers: handles,
        }
    }

    /// The server behind this front-end.
    pub fn server(&self) -> &Arc<SapphireServer> {
        &self.shared.server
    }

    /// Open an interactive session for `tenant` and register it with the
    /// event loop.
    pub fn open_session(&self, tenant: &str) -> Result<SessionId, ServerError> {
        if self.shared.reactor.is_shutdown() {
            return Err(ServerError::ShuttingDown);
        }
        let id = self.shared.server.open_session(tenant)?;
        self.shared
            .sessions
            .write()
            .unwrap()
            .insert(id.0, Arc::new(Mutex::new(SessionState::new())));
        Ok(id)
    }

    /// Submit one request on `id`'s queue. Never blocks.
    ///
    /// The callback fires exactly once — later, from a worker, with the
    /// response; or synchronously right here with the typed error when the
    /// submission itself is rejected (unknown/closed session, per-session
    /// queue full, front-end shutting down). The same error is also
    /// returned, so submit-loop callers can react without waiting.
    pub fn submit(
        &self,
        id: SessionId,
        request: FrontRequest,
        respond: ResponseCallback,
    ) -> Result<(), ServerError> {
        let reject = |e: ServerError, respond: ResponseCallback| {
            respond(Err(e.clone()));
            Err(e)
        };
        if self.shared.reactor.is_shutdown() {
            return reject(ServerError::ShuttingDown, respond);
        }
        let Some(state_arc) = self.shared.session(id.0) else {
            return reject(ServerError::UnknownSession(id), respond);
        };
        // Begin the sampled trace before taking the session lock (the tenant
        // lookup takes the registry lock). One relaxed load when sampling is
        // off — the default — so untraced submission pays nothing.
        let obs = self.shared.server.obs();
        let trace = if obs.sampling() == 0 {
            None
        } else {
            let tenant = self
                .shared
                .server
                .session_tenant(id)
                .unwrap_or_else(|_| String::new());
            obs.begin_trace(request.kind(), &tenant)
        };
        let mut st = state_arc.lock().unwrap();
        if st.closed {
            drop(st);
            return reject(ServerError::UnknownSession(id), respond);
        }
        if st.backlog() >= self.shared.config.session_queue_depth.max(1) {
            let depth = st.backlog();
            drop(st);
            return reject(
                ServerError::Overloaded {
                    in_flight: 0,
                    queue_depth: depth,
                },
                respond,
            );
        }
        st.queue.push_back(session::QueuedRequest {
            request,
            respond,
            enqueued: std::time::Instant::now(),
            trace,
        });
        self.shared
            .counters
            .submitted
            .fetch_add(1, Ordering::Relaxed);
        let kick = st.phase == Phase::Idle;
        if kick {
            st.phase = Phase::Queued;
        }
        drop(st);
        if kick {
            self.shared.reactor.schedule(id.0);
        }
        Ok(())
    }

    /// Submit and wait for the response — the blocking convenience for
    /// tests and simple clients. Must not be called from inside a response
    /// callback (it would wait on the worker it runs on).
    pub fn call(&self, id: SessionId, request: FrontRequest) -> Result<FrontResponse, ServerError> {
        struct Slot {
            done: Mutex<Option<Result<FrontResponse, ServerError>>>,
            cv: Condvar,
        }
        let slot = Arc::new(Slot {
            done: Mutex::new(None),
            cv: Condvar::new(),
        });
        let cb_slot = slot.clone();
        // The submission error also arrives through the callback; surface
        // the callback-delivered result either way so the two reporting
        // paths can never disagree.
        let _ = self.submit(
            id,
            request,
            Box::new(move |result| {
                *cb_slot.done.lock().unwrap() = Some(result);
                cb_slot.cv.notify_one();
            }),
        );
        let mut done = slot.done.lock().unwrap();
        while done.is_none() {
            done = slot.cv.wait(done).unwrap();
        }
        done.take().expect("loop exits only once filled")
    }

    /// Requests queued across all sessions plus sessions parked on
    /// admission — the front-end's total backlog.
    pub fn backlog(&self) -> usize {
        let sessions = self.shared.sessions.read().unwrap();
        sessions.values().map(|s| s.lock().unwrap().backlog()).sum()
    }

    /// Observability snapshot.
    pub fn metrics(&self) -> FrontendMetrics {
        let (ready, parked, _busy) = self.shared.reactor.load();
        FrontendMetrics {
            submitted: self.shared.counters.submitted.load(Ordering::Relaxed),
            completed: self.shared.counters.completed.load(Ordering::Relaxed),
            immediate_grants: self
                .shared
                .counters
                .immediate_grants
                .load(Ordering::Relaxed),
            ticket_waits: self.shared.counters.ticket_waits.load(Ordering::Relaxed),
            ticket_grants: self.shared.counters.ticket_grants.load(Ordering::Relaxed),
            late_grants: self.shared.counters.late_grants.load(Ordering::Relaxed),
            queue_timeouts: self.shared.counters.queue_timeouts.load(Ordering::Relaxed),
            shed_dispatches: self.shared.counters.shed_dispatches.load(Ordering::Relaxed),
            open_sessions: self.shared.sessions.read().unwrap().len(),
            ready,
            parked,
            peak_ready: self.shared.reactor.peak_ready(),
        }
    }

    /// Everything this front-end and its server export, as one
    /// [`sapphire_obs::MetricsHub`] — server/cache/model counters, per-stage
    /// latency sections, and a `frontend` section — readable typed or as
    /// JSON.
    pub fn export_metrics(&self) -> sapphire_obs::MetricsHub {
        let mut hub = self.shared.server.export_metrics();
        let m = self.metrics();
        hub.section("frontend")
            .field("submitted", m.submitted)
            .field("completed", m.completed)
            .field("immediate_grants", m.immediate_grants)
            .field("ticket_waits", m.ticket_waits)
            .field("ticket_grants", m.ticket_grants)
            .field("late_grants", m.late_grants)
            .field("queue_timeouts", m.queue_timeouts)
            .field("shed_dispatches", m.shed_dispatches)
            .field("open_sessions", m.open_sessions)
            .field("ready", m.ready)
            .field("parked", m.parked)
            .field("peak_ready", m.peak_ready);
        hub
    }

    /// Drain and stop: reject new intake typed ([`ServerError::ShuttingDown`]),
    /// finish every queued request and parked admission (each gets its
    /// response), then join the workers. Returns the final metrics —
    /// `completed == submitted` is the drain guarantee the shutdown test
    /// pins.
    pub fn shutdown(mut self) -> FrontendMetrics {
        self.shared.reactor.begin_shutdown();
        for h in self.workers.drain(..) {
            h.join().expect("front-end workers never panic");
        }
        self.metrics()
    }
}

impl Drop for Frontend {
    fn drop(&mut self) {
        // Dropping without `shutdown()` still drains: otherwise queued
        // callbacks (and their callers) would silently never fire.
        self.shared.reactor.begin_shutdown();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use sapphire_core::prelude::*;
    use sapphire_core::session::TripleInput;
    use sapphire_core::InitMode;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    fn pum() -> Arc<PredictiveUserModel> {
        let graph = sapphire_rdf::turtle::parse(
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

    fn frontend(config: ServerConfig) -> Frontend {
        Frontend::new(
            Arc::new(SapphireServer::new(pum(), config)),
            FrontendConfig::for_tests(),
        )
    }

    #[test]
    fn requests_execute_in_submission_order_per_session() {
        let fe = frontend(ServerConfig::for_tests());
        let s = fe.open_session("alice").unwrap();
        fe.call(
            s,
            FrontRequest::SetRow {
                idx: 0,
                input: TripleInput::new("?p", "surname", "Kennedy"),
            },
        )
        .unwrap();
        let out = match fe.call(s, FrontRequest::Run).unwrap() {
            FrontResponse::Run(out) => out,
            other => panic!("unexpected response {other:?}"),
        };
        assert!(out.executed);
        assert_eq!(out.answers.total_rows(), 1);
        assert_eq!(out.attempts, 1);
        let completion = match fe.call(
            s,
            FrontRequest::Complete {
                typed: "Kenn".into(),
            },
        ) {
            Ok(FrontResponse::Completion(c)) => c,
            other => panic!("unexpected response {other:?}"),
        };
        assert!(!completion.suggestions.is_empty());
        assert!(matches!(
            fe.call(s, FrontRequest::Close),
            Ok(FrontResponse::Closed)
        ));
        assert_eq!(fe.server().metrics().open_sessions, 0);
    }

    #[test]
    fn workers_are_not_parked_by_a_full_admission_gate() {
        // One execution slot, held externally: an admitted-path request must
        // park its *session* on a ticket while both workers keep serving
        // other sessions' immediate requests.
        let fe = frontend(ServerConfig {
            max_in_flight: 1,
            max_queue_depth: 8,
            queue_wait: Duration::from_secs(5),
            ..ServerConfig::for_tests()
        });
        let blocked = fe.open_session("alice").unwrap();
        let nimble = fe.open_session("bob").unwrap();
        let slot = fe.server().hold_slot().unwrap();

        let got_completion = Arc::new(AtomicUsize::new(0));
        let flag = got_completion.clone();
        fe.submit(
            blocked,
            FrontRequest::Complete {
                typed: "Kenn".into(),
            },
            Box::new(move |r| {
                r.expect("granted after the slot frees");
                flag.store(1, Ordering::SeqCst);
            }),
        )
        .unwrap();
        // Wait until the session is genuinely parked on its ticket.
        while fe.metrics().parked == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(got_completion.load(Ordering::SeqCst), 0);

        // Both workers are free: immediate requests on another session
        // complete promptly even though the gate is full.
        let t = std::time::Instant::now();
        for i in 0..16 {
            fe.call(
                nimble,
                FrontRequest::SetRow {
                    idx: i,
                    input: TripleInput::new("?p", "name", "?n"),
                },
            )
            .unwrap();
        }
        assert!(
            t.elapsed() < Duration::from_millis(500),
            "immediate requests stalled behind a parked admission: {:?}",
            t.elapsed()
        );

        drop(slot);
        while got_completion.load(Ordering::SeqCst) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let m = fe.metrics();
        assert_eq!(m.ticket_waits, 1, "the wait was a ticket, not a thread");
        assert_eq!(m.ticket_grants + m.late_grants, 1);
        assert_eq!(m.queue_timeouts, 0);
    }

    #[test]
    fn parked_session_times_out_typed_at_its_deadline() {
        let fe = frontend(ServerConfig {
            max_in_flight: 1,
            max_queue_depth: 8,
            queue_wait: Duration::from_millis(30),
            ..ServerConfig::for_tests()
        });
        let s = fe.open_session("alice").unwrap();
        let slot = fe.server().hold_slot().unwrap();
        let err = fe
            .call(
                s,
                FrontRequest::Complete {
                    typed: "Kenn".into(),
                },
            )
            .expect_err("deadline passes while the slot is held");
        assert!(matches!(err, ServerError::QueueTimeout { .. }), "{err:?}");
        let m = fe.metrics();
        assert_eq!(m.queue_timeouts, 1);
        assert_eq!(m.parked, 0, "settled sessions leave the parked set");
        assert_eq!(
            fe.server().metrics().rejected_queue_timeout,
            1,
            "the server ledger sees evented rejections too"
        );
        drop(slot);
        // The session is healthy afterwards.
        fe.call(
            s,
            FrontRequest::Complete {
                typed: "Kenn".into(),
            },
        )
        .expect("slot free again");
    }

    #[test]
    fn request_behind_a_close_answers_unknown_session_without_touching_the_gate() {
        // The gate is full and queues nothing, so any request that reaches
        // it is bounced `Overloaded`. A completion queued behind its own
        // session's `Close` must never get that far: the pre-gate half
        // resolves the session first, for evented admission exactly as for
        // the blocking `complete`.
        let fe = Frontend::new(
            Arc::new(SapphireServer::new(
                pum(),
                ServerConfig {
                    max_in_flight: 1,
                    max_queue_depth: 0,
                    ..ServerConfig::for_tests()
                },
            )),
            FrontendConfig {
                workers: 1,
                ..FrontendConfig::for_tests()
            },
        );
        let _slot = fe.server().hold_slot().unwrap();
        // Pin the only worker inside another session's callback until both
        // requests are queued — `submit` itself rejects on a session whose
        // close has already executed, and that is not the path under test.
        let (pinned_tx, pinned) = std::sync::mpsc::channel();
        let (go, go_rx) = std::sync::mpsc::channel::<()>();
        let other = fe.open_session("bob").unwrap();
        fe.submit(
            other,
            FrontRequest::SetModifiers {
                modifiers: Default::default(),
            },
            Box::new(move |_| {
                pinned_tx.send(()).unwrap();
                go_rx.recv().unwrap();
            }),
        )
        .unwrap();
        pinned.recv().unwrap();

        let s = fe.open_session("alice").unwrap();
        let (answer_tx, answer) = std::sync::mpsc::channel();
        fe.submit(s, FrontRequest::Close, Box::new(|_| {})).unwrap();
        fe.submit(
            s,
            FrontRequest::Complete {
                typed: "Kenn".into(),
            },
            Box::new(move |r| answer_tx.send(r).unwrap()),
        )
        .unwrap();
        go.send(()).unwrap();

        let err = answer.recv().unwrap().expect_err("the session is gone");
        assert_eq!(err, ServerError::UnknownSession(s));
        let m = fe.server().metrics();
        assert_eq!(m.rejected_overloaded, 0, "it never reached the gate");
        assert_eq!(m.completion_requests, 1, "and was still counted");
    }

    #[test]
    fn dead_raw_target_surfaces_as_unreachable_not_backend() {
        // A raw service (a cluster router, say) reporting a dead shard must
        // keep its retryable type through the front-end.
        struct DeadShard;
        impl QueryService for DeadShard {
            fn service_name(&self) -> &str {
                "dead"
            }
            fn execute_query(
                &self,
                _tenant: &str,
                _query: &sapphire_sparql::Query,
            ) -> Result<sapphire_sparql::QueryResult, sapphire_endpoint::ServiceError> {
                Err(sapphire_endpoint::ServiceError::Backend(
                    sapphire_endpoint::EndpointError::Unreachable {
                        reason: "connect".into(),
                    },
                ))
            }
        }
        let fe = Frontend::with_raw_service(
            Arc::new(SapphireServer::new(pum(), ServerConfig::for_tests())),
            Arc::new(DeadShard),
            FrontendConfig::for_tests(),
        );
        let s = fe.open_session("alice").unwrap();
        let query = sapphire_sparql::parse_query("SELECT ?s WHERE { ?s ?p ?o }").unwrap();
        let err = fe
            .call(s, FrontRequest::Query { query })
            .expect_err("the target is dead");
        assert_eq!(
            err,
            ServerError::Unreachable {
                reason: "connect".into()
            }
        );
        assert!(err.is_rejection(), "retryable, like any dead replica");
    }

    #[test]
    fn session_queue_depth_is_typed_backpressure() {
        let fe = Frontend::new(
            Arc::new(SapphireServer::new(pum(), ServerConfig::for_tests())),
            FrontendConfig {
                workers: 1,
                session_queue_depth: 2,
                shed_ready_threshold: None,
            },
        );
        let s = fe.open_session("alice").unwrap();
        // Hold the single worker hostage with a parked admission on another
        // session? Simpler: saturate the queue faster than one worker can
        // drain by submitting from under the session's own lock-free burst.
        let accepted = Arc::new(AtomicUsize::new(0));
        let rejected = Arc::new(AtomicUsize::new(0));
        let mut overflowed = false;
        for i in 0..64 {
            let a = accepted.clone();
            let r = rejected.clone();
            let outcome = fe.submit(
                s,
                FrontRequest::SetRow {
                    idx: i % 4,
                    input: TripleInput::new("?p", "name", "?n"),
                },
                Box::new(move |result| {
                    match result {
                        Ok(_) => a.fetch_add(1, Ordering::SeqCst),
                        Err(_) => r.fetch_add(1, Ordering::SeqCst),
                    };
                }),
            );
            if let Err(e) = outcome {
                assert!(
                    matches!(e, ServerError::Overloaded { .. }),
                    "typed backlog rejection, got {e:?}"
                );
                overflowed = true;
            }
        }
        let m = fe.shutdown();
        assert_eq!(m.completed, m.submitted, "every accepted request answered");
        assert_eq!(
            accepted.load(Ordering::SeqCst) + rejected.load(Ordering::SeqCst),
            64,
            "every submission got exactly one callback"
        );
        assert!(
            overflowed || accepted.load(Ordering::SeqCst) == 64,
            "either the cap bit or the worker kept up"
        );
    }

    #[test]
    fn shutdown_drains_and_rejects_new_intake() {
        let fe = frontend(ServerConfig::for_tests());
        let s = fe.open_session("alice").unwrap();
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let done = done.clone();
            fe.submit(
                s,
                FrontRequest::Complete {
                    typed: "Kenn".into(),
                },
                Box::new(move |r| {
                    r.expect("drained, not dropped");
                    done.fetch_add(1, Ordering::SeqCst);
                }),
            )
            .unwrap();
        }
        let metrics = fe.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 8, "every callback fired");
        assert_eq!(metrics.completed, metrics.submitted);
        assert_eq!(metrics.ready, 0);
        assert_eq!(metrics.parked, 0);
    }

    #[test]
    fn submissions_after_shutdown_are_rejected_typed() {
        let fe = frontend(ServerConfig::for_tests());
        let s = fe.open_session("alice").unwrap();
        let shared = fe.shared.clone();
        shared.reactor.begin_shutdown();
        let cb_seen = Arc::new(AtomicUsize::new(0));
        let flag = cb_seen.clone();
        let err = fe
            .submit(
                s,
                FrontRequest::Run,
                Box::new(move |r| {
                    assert!(matches!(r, Err(ServerError::ShuttingDown)));
                    flag.store(1, Ordering::SeqCst);
                }),
            )
            .unwrap_err();
        assert!(matches!(err, ServerError::ShuttingDown));
        assert_eq!(cb_seen.load(Ordering::SeqCst), 1, "callback still fired");
        assert!(matches!(
            fe.open_session("bob"),
            Err(ServerError::ShuttingDown)
        ));
    }

    #[test]
    fn ready_queue_backlog_sheds_tiers_but_never_onto_tier_zero() {
        // Front-end-initiated shedding: one worker, threshold 0, so ANY
        // ready-queue backlog at dispatch time floors the run's tier. The
        // worker is pinned deterministically by blocking inside the first
        // run's callback while the backlog is submitted behind it.
        let fe = Frontend::new(
            Arc::new(SapphireServer::new(pum(), ServerConfig::for_tests())),
            FrontendConfig {
                workers: 1,
                shed_ready_threshold: Some(0),
                ..FrontendConfig::for_tests()
            },
        );
        // Two literal rows: the QSM only honors a degradation tier when the
        // query has >= 2 literal groups to relax (a single-literal query
        // reports tier 0 at every tier by design).
        let rows = |fe: &Frontend, s: SessionId| {
            fe.call(
                s,
                FrontRequest::SetRow {
                    idx: 0,
                    input: TripleInput::new("?p", "surname", "Kennedy"),
                },
            )
            .unwrap();
            fe.call(
                s,
                FrontRequest::SetRow {
                    idx: 1,
                    input: TripleInput::new("?p", "name", "John F. Kennedy"),
                },
            )
            .unwrap();
        };
        let sessions: Vec<_> = (0..8)
            .map(|i| {
                let s = fe.open_session(&format!("user{i}")).unwrap();
                rows(&fe, s);
                s
            })
            .collect();

        // Pin the single worker: its first run's callback blocks until the
        // gate opens, so every later submission lands in the ready queue.
        let gate = Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
        let tiers = Arc::new(std::sync::Mutex::new(Vec::new()));
        let pending = Arc::new(AtomicUsize::new(sessions.len()));
        {
            let gate = gate.clone();
            let tiers = tiers.clone();
            let pending = pending.clone();
            fe.submit(
                sessions[0],
                FrontRequest::Run,
                Box::new(move |r| {
                    let out = match r.expect("run succeeds") {
                        FrontResponse::Run(out) => out,
                        other => panic!("unexpected response {other:?}"),
                    };
                    tiers.lock().unwrap().push(out.suggestions.tier);
                    let (lock, cvar) = &*gate;
                    let mut open = lock.lock().unwrap();
                    while !*open {
                        open = cvar.wait(open).unwrap();
                    }
                    pending.fetch_sub(1, Ordering::SeqCst);
                }),
            )
            .unwrap();
        }
        for &s in &sessions[1..] {
            let tiers = tiers.clone();
            let pending = pending.clone();
            fe.submit(
                s,
                FrontRequest::Run,
                Box::new(move |r| {
                    let out = match r.expect("run succeeds") {
                        FrontResponse::Run(out) => out,
                        other => panic!("unexpected response {other:?}"),
                    };
                    tiers.lock().unwrap().push(out.suggestions.tier);
                    pending.fetch_sub(1, Ordering::SeqCst);
                }),
            )
            .unwrap();
        }
        {
            let (lock, cvar) = &*gate;
            *lock.lock().unwrap() = true;
            cvar.notify_all();
        }
        while pending.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }

        let tiers = tiers.lock().unwrap().clone();
        assert!(
            tiers.iter().any(|&t| t > 0),
            "a dispatch behind the pinned worker must have shed: {tiers:?}"
        );
        assert!(fe.metrics().shed_dispatches >= 1);

        // Tier-0 isolation: with the backlog drained, the same query run
        // fresh must come back full-fidelity — the tier-keyed caches never
        // leak a shed answer into a tier-0 lookup.
        let calm = fe.open_session("calm").unwrap();
        rows(&fe, calm);
        let out = match fe.call(calm, FrontRequest::Run).unwrap() {
            FrontResponse::Run(out) => out,
            other => panic!("unexpected response {other:?}"),
        };
        assert_eq!(out.suggestions.tier, 0, "tier-0 lookup saw a shed answer");
        assert!(!out.suggestions.degraded);
        assert!(out.executed);
    }
}

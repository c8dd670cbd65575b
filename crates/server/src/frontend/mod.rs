//! The evented serving front-end: thousands of open sessions, and not one
//! thread of its own.
//!
//! The paper's workload is interactive — users hold sessions open for
//! minutes and issue requests in sub-second bursts between long think
//! times. A thread-per-request tier spends its capacity *parked*: every
//! open session that is waiting for admission, or simply idle, pins a
//! stack. This module inverts that:
//!
//! * a **session** is a lightweight state machine (`session::SessionState`)
//!   — a FIFO queue of submitted requests plus a phase tag — never a
//!   thread. It lives in the session's entry of the server's registry
//!   ([`OpenSession`], beside the server's rows), so the front-end keeps
//!   no table of its own: a session opened on the server is a session here,
//!   and closing it there closes it here. [`Frontend::submit`] resolves
//!   the id once; the ready queue, the turns, the grant callbacks and the
//!   deadline timers carry the session itself;
//! * **a request that needs neither waiting nor work stays on the thread
//!   that asked**: [`Frontend::submit`] on an idle session takes the
//!   session's turn itself and answers a session edit or a response-cache
//!   hit before it returns — the commonest requests of an interactive
//!   service cost no thread hand-off at all;
//! * the **reactor** (`reactor::Reactor`) holds the sessions that have
//!   runnable work in one ready queue — the sessions themselves, so a
//!   session closed with requests still queued drains on its turn, and is
//!   freed when the last of them has answered;
//! * **turn tasks** on the process-global executor
//!   ([`sapphire_core::exec::global`]) — at most `FrontendConfig::workers`
//!   at once — pop ready sessions and drive [`SapphireServer`] request
//!   execution to completion: the requests a submitter could not finish,
//!   i.e. cache misses (handed over once, past their counted lookup, slot
//!   in hand), sessions resuming from a parked ticket, and submissions to a
//!   busy session. A turn task ends when the queue is empty; the next
//!   ready session starts another;
//! * **admission never parks a thread**: a full gate hands back an
//!   [`AdmissionTicket`](crate::admission::AdmissionTicket) and the
//!   *session* waits in `AwaitingGrant` — the queue wait lives in the
//!   reactor, not in a blocked thread
//!   ([`AdmissionController::admit_evented`](crate::admission::AdmissionController::admit_evented)),
//!   and its deadline is an executor timer.
//!
//! Submitter and turn tasks run the *same* dispatch (`worker::Turn`); which of
//! them holds a session is the phase tag, so per-session ordering is exactly
//! submission order (one thread operates on a session at a time) and the
//! evented tier answers byte-for-byte like the thread-per-request tier —
//! pinned by the root `tests/frontend.rs` oracle. Every request a session
//! submits, a raw [`FrontRequest::Query`] included, goes to its own server
//! through that dispatch.

pub(crate) mod reactor;
pub mod session;
mod worker;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use sapphire_core::exec;
use sapphire_obs::Stage;

use crate::error::ServerError;
use crate::registry::{OpenSession, SessionId};
use crate::server::SapphireServer;

pub use session::{FrontRequest, FrontResponse, ResponseCallback};

use session::Phase;

/// Tuning knobs of a [`Frontend`].
#[derive(Debug, Clone)]
pub struct FrontendConfig {
    /// Turns this front-end runs at once on the shared executor
    /// ([`sapphire_core::exec::global`]): the cap on its concurrent request
    /// execution. The front-end owns no threads, and this does not grow
    /// with open sessions.
    pub workers: usize,
    /// Requests one session may have queued (its typing-burst backlog);
    /// submissions beyond it are rejected typed with
    /// [`ServerError::Overloaded`]. The bound is per-session back-pressure:
    /// a single runaway client cannot grow the front-end's memory.
    pub session_queue_depth: usize,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        FrontendConfig {
            workers: std::thread::available_parallelism()
                .map(usize::from)
                .unwrap_or(8)
                .min(8),
            session_queue_depth: 64,
        }
    }
}

impl FrontendConfig {
    /// A small configuration for unit tests.
    pub fn for_tests() -> Self {
        FrontendConfig {
            workers: 2,
            session_queue_depth: 64,
        }
    }
}

/// Point-in-time front-end observability snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontendMetrics {
    /// Requests accepted by [`Frontend::submit`].
    pub submitted: u64,
    /// Responses delivered (every accepted request produces exactly one) —
    /// by construction `answered_inline + answered_by_worker`, each counted
    /// where the response is handed to its callback.
    pub completed: u64,
    /// Requests answered on the submitting thread, before
    /// [`Frontend::submit`] returned: session edits and response-cache hits
    /// on an idle session (and whatever fails typed before it could wait).
    pub answered_inline: u64,
    /// Requests answered by a turn task on the shared executor.
    pub answered_by_worker: u64,
    /// Requests a submitting thread took as far as a counted cache miss and
    /// a turn task finished — the one thread hand-off a cold request pays.
    pub handed_over: u64,
    /// Admission-controlled requests granted a free slot immediately.
    pub immediate_grants: u64,
    /// Admission-controlled requests that parked their session on a queued
    /// ticket instead of parking a worker thread.
    pub ticket_waits: u64,
    /// Parked sessions resumed by a grant callback.
    pub ticket_grants: u64,
    /// Grants that arrived in the same instant the deadline timer fired —
    /// the slot is used, never bounced.
    pub late_grants: u64,
    /// Parked sessions settled to [`ServerError::QueueTimeout`].
    pub queue_timeouts: u64,
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
    pub(crate) answered_inline: AtomicU64,
    pub(crate) answered_by_worker: AtomicU64,
    pub(crate) handed_over: AtomicU64,
    pub(crate) immediate_grants: AtomicU64,
    pub(crate) ticket_waits: AtomicU64,
    pub(crate) ticket_grants: AtomicU64,
    pub(crate) late_grants: AtomicU64,
    pub(crate) queue_timeouts: AtomicU64,
}

pub(crate) struct Shared {
    pub(crate) server: Arc<SapphireServer>,
    pub(crate) config: FrontendConfig,
    pub(crate) reactor: reactor::Reactor,
    pub(crate) counters: MetricCounters,
}

impl Shared {
    /// Make `session` ready, starting a turn task on the shared executor
    /// unless `workers` are already alive.
    pub(crate) fn schedule(self: &Arc<Self>, session: Arc<OpenSession>) {
        if self.reactor.schedule(session) {
            let shared = Arc::clone(self);
            exec::global().spawn(move || worker::run_turns(&shared));
        }
    }

    /// A parked session's admission grant arrived or its deadline passed:
    /// it becomes ready, and a turn claims the grant or settles the expired
    /// ticket.
    pub(crate) fn on_grant(self: &Arc<Self>, session: Arc<OpenSession>) {
        let mut st = session.queue.lock().unwrap();
        if st.phase == Phase::AwaitingGrant {
            st.phase = Phase::Queued;
            drop(st);
            self.schedule(session);
        }
        // Any other phase: a thread holds the session right now and its
        // re-park path double-checks the ticket, so the wake is not lost.
    }
}

/// The evented front-end: see the module docs.
pub struct Frontend {
    shared: Arc<Shared>,
}

impl Frontend {
    /// Stand a front-end over `server`. It starts no thread: its turns and
    /// deadline timers run on the process-global executor, which this
    /// brings up if nothing has yet.
    pub fn new(server: Arc<SapphireServer>, config: FrontendConfig) -> Self {
        exec::global();
        let shared = Arc::new(Shared {
            server,
            reactor: reactor::Reactor::new(config.workers),
            config,
            counters: MetricCounters::default(),
        });
        Frontend { shared }
    }

    /// The server behind this front-end.
    pub fn server(&self) -> &Arc<SapphireServer> {
        &self.shared.server
    }

    /// Open an interactive session for `tenant` on the server — the same
    /// session [`SapphireServer::open_session`] opens, refused once this
    /// front-end is shutting down.
    pub fn open_session(&self, tenant: &str) -> Result<SessionId, ServerError> {
        if self.shared.reactor.is_shutdown() {
            return Err(ServerError::ShuttingDown);
        }
        self.shared.server.open_session(tenant)
    }

    /// Submit one request on `id`. Never waits on the admission gate, on a
    /// single-flight or on a model scan.
    ///
    /// The callback fires exactly once — on the submitting thread, before
    /// `submit` returns, for a session edit or a response-cache hit on an
    /// idle session (and for a submission rejected outright: unknown/closed
    /// session, per-session queue full, front-end shutting down); otherwise
    /// later, from a turn on a shared executor worker — so a callback that
    /// blocks holds that worker, and one of this front-end's `workers`
    /// turns, for as long as it blocks. A rejection is also returned, so
    /// submit-loop callers can react without waiting.
    ///
    /// What the submitting thread *does* take, when it answers itself, is a
    /// handful of short locks nobody holds across a wait — one registry
    /// shard's read lock to resolve `id`, the session's queue (and, for a
    /// `Run`, its entry), the admission gate's counter, one response-cache
    /// shard — and, for a `Run`, the time to turn the session's rows into a
    /// query (a few µs).
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
        // The one lookup of the id: from here on the session itself travels
        // with the request.
        let session = self.shared.server.session(id);
        // Begin the sampled trace before taking the session's queue lock.
        // One relaxed load when sampling is off — the default — so untraced
        // submission pays nothing.
        let obs = self.shared.server.obs();
        let trace = if obs.sampling() == 0 {
            None
        } else {
            let tenant = match &session {
                Ok(session) => session.entry.lock().unwrap().tenant.clone(),
                Err(_) => String::new(),
            };
            obs.begin_trace(request.kind(), &tenant)
        };
        let enqueued = std::time::Instant::now();
        // A rejection from here on is an answer like any other: it seals
        // `end_to_end`, and a sampled one reaches the flight recorder tagged
        // with why the front-end turned it away.
        let reject_begun = |e: ServerError, respond, trace: Option<sapphire_obs::Trace>| {
            obs.record(Stage::EndToEnd, enqueued.elapsed().as_micros() as u64);
            if let Some(t) = trace {
                let tag = format!("rejected: {e}");
                t.add_span(Stage::FrontendQueue.name(), enqueued, 0, None, tag);
                obs.finish_trace(t);
            }
            reject(e, respond)
        };
        let session = match session {
            Ok(session) => session,
            Err(e) => return reject_begun(e, respond, trace),
        };
        let mut st = session.queue.lock().unwrap();
        if st.backlog() >= self.shared.config.session_queue_depth.max(1) {
            let depth = st.backlog();
            drop(st);
            let e = ServerError::Overloaded {
                in_flight: 0,
                queue_depth: depth,
            };
            return reject_begun(e, respond, trace);
        }
        self.shared
            .counters
            .submitted
            .fetch_add(1, Ordering::Relaxed);
        let q = session::QueuedRequest {
            request,
            respond,
            enqueued,
            trace,
        };
        match st.phase {
            // Nothing queued, nothing parked, nobody operating: this thread
            // takes the turn a worker would, under the same phase tag.
            Phase::Idle if worker::submitter_may_dispatch(&self.shared) => {
                st.phase = Phase::Running;
                drop(st);
                worker::dispatch_on_submitter(&self.shared, &session, q);
            }
            Phase::Idle => {
                st.queue.push_back(q);
                st.phase = Phase::Queued;
                drop(st);
                self.shared.schedule(session);
            }
            // Whoever holds the session, or its grant, finds the request in
            // the queue when its turn ends.
            Phase::Queued | Phase::Running | Phase::AwaitingGrant => st.queue.push_back(q),
        }
        Ok(())
    }

    /// Submit and wait for the response — the blocking convenience for
    /// tests and simple clients (an edit or a cache hit on an idle session
    /// finds its slot already filled and never sleeps). Must not be called
    /// from inside a response callback (it would wait on the worker it runs
    /// on).
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

    /// Requests accepted and not yet answered — queued, parked on
    /// admission, handed over or executing: the front-end's total backlog.
    pub fn backlog(&self) -> usize {
        let m = self.metrics();
        m.submitted.saturating_sub(m.completed) as usize
    }

    /// Observability snapshot.
    pub fn metrics(&self) -> FrontendMetrics {
        let (ready, parked, peak_ready) = self.shared.reactor.load();
        let counters = &self.shared.counters;
        let answered_inline = counters.answered_inline.load(Ordering::Relaxed);
        let answered_by_worker = counters.answered_by_worker.load(Ordering::Relaxed);
        FrontendMetrics {
            submitted: self.shared.counters.submitted.load(Ordering::Relaxed),
            completed: answered_inline + answered_by_worker,
            answered_inline,
            answered_by_worker,
            handed_over: self.shared.counters.handed_over.load(Ordering::Relaxed),
            immediate_grants: self
                .shared
                .counters
                .immediate_grants
                .load(Ordering::Relaxed),
            ticket_waits: self.shared.counters.ticket_waits.load(Ordering::Relaxed),
            ticket_grants: self.shared.counters.ticket_grants.load(Ordering::Relaxed),
            late_grants: self.shared.counters.late_grants.load(Ordering::Relaxed),
            queue_timeouts: self.shared.counters.queue_timeouts.load(Ordering::Relaxed),
            ready,
            parked,
            peak_ready,
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
            .field("answered_inline", m.answered_inline)
            .field("answered_by_worker", m.answered_by_worker)
            .field("handed_over", m.handed_over)
            .field("immediate_grants", m.immediate_grants)
            .field("ticket_waits", m.ticket_waits)
            .field("ticket_grants", m.ticket_grants)
            .field("late_grants", m.late_grants)
            .field("queue_timeouts", m.queue_timeouts)
            .field("ready", m.ready)
            .field("parked", m.parked)
            .field("peak_ready", m.peak_ready);
        hub
    }

    /// Drain and stop: reject new intake typed ([`ServerError::ShuttingDown`]),
    /// finish every queued request and parked admission (each gets its
    /// response), then wait for the last turn task to end. Returns the
    /// final metrics — `completed == submitted` is the drain guarantee the
    /// shutdown test pins.
    pub fn shutdown(self) -> FrontendMetrics {
        self.shared.reactor.drain();
        self.metrics()
    }
}

impl Drop for Frontend {
    fn drop(&mut self) {
        // Dropping without `shutdown()` still drains: otherwise queued
        // callbacks (and their callers) would silently never fire.
        self.shared.reactor.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use sapphire_core::prelude::*;
    use sapphire_core::session::TripleInput;
    use sapphire_core::InitMode;
    use std::collections::HashMap;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;
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

    /// Pin the worker that answers `s`'s raw query — never cached, so always
    /// a worker's — inside its callback, with `s` held by that worker's turn
    /// until the returned sender sends or is dropped: requests submitted to
    /// `s` meanwhile queue behind it.
    fn pin_session(fe: &Frontend, s: SessionId) -> mpsc::Sender<()> {
        let (pinned_tx, pinned) = mpsc::channel();
        let (release, released) = mpsc::channel::<()>();
        let query = sapphire_sparql::parse_query("ASK { ?s ?p ?o }").unwrap();
        fe.submit(
            s,
            FrontRequest::Query { query },
            Box::new(move |_| {
                pinned_tx.send(()).unwrap();
                let _ = released.recv();
            }),
        )
        .unwrap();
        pinned.recv().unwrap();
        release
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
        // Pin the only worker inside the session's own raw query until both
        // requests are queued behind it — `submit` on an idle session would
        // execute the close itself and then reject the completion, and that
        // is not the path under test. The query took the slot and gave it
        // back before its callback ran; now the gate fills.
        let s = fe.open_session("alice").unwrap();
        let release = pin_session(&fe, s);
        let _slot = fe.server().hold_slot().unwrap();

        let (answer_tx, answer) = mpsc::channel();
        fe.submit(s, FrontRequest::Close, Box::new(|_| {})).unwrap();
        fe.submit(
            s,
            FrontRequest::Complete {
                typed: "Kenn".into(),
            },
            Box::new(move |r| answer_tx.send(r).unwrap()),
        )
        .unwrap();
        release.send(()).unwrap();

        let err = answer.recv().unwrap().expect_err("the session is gone");
        assert_eq!(err, ServerError::UnknownSession(s));
        let m = fe.server().metrics();
        assert_eq!(m.rejected_overloaded, 0, "it never reached the gate");
        assert_eq!(m.completion_requests, 1, "and was still counted");
    }

    #[test]
    fn a_session_opened_on_the_server_is_served_by_the_front_end() {
        let fe = frontend(ServerConfig::for_tests());
        let s = fe.server().open_session("alice").unwrap();
        fe.call(
            s,
            FrontRequest::SetRow {
                idx: 0,
                input: TripleInput::new("?p", "surname", "Kennedy"),
            },
        )
        .expect("one table: the front-end knows the server's session");
        match fe.call(s, FrontRequest::Run).unwrap() {
            FrontResponse::Run(out) => assert_eq!(out.answers.total_rows(), 1),
            other => panic!("unexpected response {other:?}"),
        }
        assert!(matches!(
            fe.call(s, FrontRequest::Close),
            Ok(FrontResponse::Closed)
        ));
        assert_eq!(fe.server().metrics().open_sessions, 0);
    }

    /// A front-end whose gate has one slot, held by the test, and a session
    /// whose completion is parked on an admission ticket behind it. Returns
    /// the slot, the session, a `Weak` of it, and where the parked request's
    /// answer arrives.
    #[allow(clippy::type_complexity)]
    fn parked_session(
        fe: &Frontend,
    ) -> (
        crate::admission::AdmissionPermit,
        SessionId,
        std::sync::Weak<OpenSession>,
        mpsc::Receiver<Result<FrontResponse, ServerError>>,
    ) {
        let s = fe.open_session("alice").unwrap();
        let weak = Arc::downgrade(&fe.server().session(s).unwrap());
        let slot = fe.server().hold_slot().unwrap();
        let kenn = FrontRequest::Complete {
            typed: "Kenn".into(),
        };
        let Err(parked) = answered_by_return(fe, s, kenn) else {
            panic!("answered through a full gate");
        };
        assert_eq!(fe.metrics().parked, 1, "parked on its ticket");
        (slot, s, weak, parked)
    }

    fn one_slot_gate() -> ServerConfig {
        ServerConfig {
            max_in_flight: 1,
            max_queue_depth: 8,
            queue_wait: Duration::from_secs(5),
            ..ServerConfig::for_tests()
        }
    }

    #[test]
    fn a_close_behind_a_parked_request_drains_the_session_and_frees_it() {
        let fe = frontend(one_slot_gate());
        let (slot, s, weak, parked) = parked_session(&fe);
        let (close_tx, closed) = mpsc::channel();
        fe.submit(
            s,
            FrontRequest::Close,
            Box::new(move |r| close_tx.send(r).unwrap()),
        )
        .unwrap();
        let query = sapphire_sparql::parse_query("ASK { ?s ?p ?o }").unwrap();
        let behind = vec![
            FrontRequest::SetRow {
                idx: 0,
                input: TripleInput::new("?p", "surname", "Kennedy"),
            },
            FrontRequest::SetModifiers {
                modifiers: Default::default(),
            },
            FrontRequest::ApplyAlternative { index: 0 },
            FrontRequest::Complete {
                typed: "Kenn".into(),
            },
            FrontRequest::Run,
            FrontRequest::Query { query },
        ];
        let answers: Vec<_> = behind
            .into_iter()
            .map(|request| {
                let (tx, rx) = mpsc::channel();
                fe.submit(s, request, Box::new(move |r| tx.send(r).unwrap()))
                    .expect("queued behind the close");
                rx
            })
            .collect();
        assert_eq!(fe.backlog(), 8, "the parked request, the close, six more");
        drop(slot);

        match parked.recv().unwrap() {
            Ok(FrontResponse::Completion(_)) | Err(ServerError::QueueTimeout { .. }) => {}
            other => panic!("the parked request answered {other:?}"),
        }
        assert!(matches!(closed.recv().unwrap(), Ok(FrontResponse::Closed)));
        for answer in answers {
            assert_eq!(
                answer.recv().unwrap().unwrap_err(),
                ServerError::UnknownSession(s)
            );
        }
        assert_eq!(fe.backlog(), 0);
        assert_eq!(fe.server().metrics().open_sessions, 0);
        // Once the last turn on it has ended, nothing holds the session.
        fe.shutdown();
        assert!(weak.upgrade().is_none(), "the closed session was freed");
    }

    #[test]
    fn a_session_closed_on_the_server_while_parked_still_answers_its_requests() {
        let fe = frontend(one_slot_gate());
        let (slot, s, weak, parked) = parked_session(&fe);
        let (tx, behind) = mpsc::channel();
        fe.submit(
            s,
            FrontRequest::SetModifiers {
                modifiers: Default::default(),
            },
            Box::new(move |r| tx.send(r).unwrap()),
        )
        .unwrap();
        assert!(fe.server().close_session(s));
        // The registry let go; the ticket's grant callback still holds it.
        assert!(
            weak.upgrade().is_some(),
            "a parked session outlives its close"
        );
        drop(slot);
        parked
            .recv()
            .unwrap()
            .expect("admitted before the close, answered after it");
        assert_eq!(
            behind.recv().unwrap().unwrap_err(),
            ServerError::UnknownSession(s)
        );
        let m = fe.shutdown();
        assert_eq!((m.submitted, m.completed), (2, 2));
        assert!(weak.upgrade().is_none(), "the closed session was freed");
    }

    /// Pin `n` workers of `fe`, each inside the callback of a cold
    /// completion on a session of its own — a miss is always answered by a
    /// worker. They stay pinned until the returned senders are dropped.
    fn pin_workers(fe: &Frontend, n: usize) -> Vec<mpsc::Sender<()>> {
        (0..n)
            .map(|i| {
                let s = fe.open_session(&format!("pin{i}")).unwrap();
                let (pinned_tx, pinned) = mpsc::channel();
                let (release, released) = mpsc::channel::<()>();
                fe.submit(
                    s,
                    FrontRequest::Complete {
                        typed: format!("pin{i}"),
                    },
                    Box::new(move |_| {
                        pinned_tx.send(()).unwrap();
                        let _ = released.recv();
                    }),
                )
                .unwrap();
                pinned.recv().unwrap();
                release
            })
            .collect()
    }

    /// Submit `request` and report the answer only if the submitting thread
    /// itself delivered it, inside `submit`; otherwise hand back the channel
    /// it arrives on.
    fn answered_by_return(
        fe: &Frontend,
        s: SessionId,
        request: FrontRequest,
    ) -> Result<FrontResponse, mpsc::Receiver<Result<FrontResponse, ServerError>>> {
        let (tx, rx) = mpsc::channel();
        let submitter = std::thread::current().id();
        let inline = Arc::new(AtomicUsize::new(0));
        let on_submitter = inline.clone();
        fe.submit(
            s,
            request,
            Box::new(move |r| {
                let here = std::thread::current().id() == submitter;
                on_submitter.store(usize::from(here), Ordering::SeqCst);
                tx.send(r).unwrap();
            }),
        )
        .unwrap();
        if inline.load(Ordering::SeqCst) == 1 {
            Ok(rx.recv().unwrap().expect("the request succeeds"))
        } else {
            Err(rx)
        }
    }

    #[test]
    fn edits_and_cache_hits_on_an_idle_session_need_no_worker() {
        let fe = frontend(ServerConfig::for_tests());
        let s = fe.open_session("alice").unwrap();
        let kennedy = || FrontRequest::SetRow {
            idx: 0,
            input: TripleInput::new("?p", "surname", "Kennedy"),
        };
        let kenn = || FrontRequest::Complete {
            typed: "Kenn".into(),
        };
        fe.call(s, kennedy()).unwrap();
        fe.call(s, kenn()).unwrap();
        fe.call(s, FrontRequest::Run).unwrap();

        // Every worker is busy for as long as this test likes.
        let pins = pin_workers(&fe, FrontendConfig::for_tests().workers);
        assert!(matches!(
            answered_by_return(&fe, s, kenn()),
            Ok(FrontResponse::Completion(_))
        ));
        match answered_by_return(&fe, s, FrontRequest::Run) {
            Ok(FrontResponse::Run(out)) => assert!(out.cached && out.attempts == 2),
            other => panic!("a cached run waited for a worker: {:?}", other.is_ok()),
        }
        assert!(matches!(
            answered_by_return(&fe, s, kennedy()),
            Ok(FrontResponse::Ack)
        ));
        // A cold completion is work: `submit` returns first, and the answer
        // arrives once a worker frees.
        let cold = FrontRequest::Complete {
            typed: "Kenne".into(),
        };
        let handed_over = fe.metrics().handed_over;
        let Err(later) = answered_by_return(&fe, s, cold) else {
            panic!("a cold completion was answered without a worker");
        };
        assert_eq!(fe.metrics().handed_over, handed_over + 1);
        drop(pins);
        later.recv().unwrap().expect("answered by a freed worker");
        let m = fe.shutdown();
        assert_eq!(m.answered_inline, 1 + 3, "the first edit, then these three");
        assert_eq!(m.completed, m.answered_inline + m.answered_by_worker);
    }

    #[test]
    fn a_handed_over_completion_is_counted_admitted_and_traced_once() {
        let fe = frontend(ServerConfig::for_tests());
        let server = fe.server().clone();
        server.obs().set_sampling(1);
        let s = fe.open_session("alice").unwrap();
        let kenn = || FrontRequest::Complete {
            typed: "Kenn".into(),
        };
        fe.call(s, kenn()).unwrap();

        let m = server.metrics();
        assert_eq!(m.completion_requests, 1);
        let cache = m.completion_cache;
        assert_eq!((cache.hits, cache.misses), (0, 1), "one counted lookup");
        assert_eq!(m.coalesce_leader_runs, 1, "one scan");
        assert_eq!(server.admission_load(), (0, 0), "the slot came back");
        let traces = server.obs().recorder().recent();
        assert_eq!(traces.len(), 1, "one request, one trace");
        for stage in [
            Stage::FrontendQueue,
            Stage::AdmissionWait,
            Stage::CacheLookup,
            Stage::QcmScan,
        ] {
            assert!(
                traces[0].spans.iter().any(|span| span.name == stage.name()),
                "no {} span in {}",
                stage.name(),
                traces[0].render()
            );
        }

        // It was inserted once: the same request again is a hit, and a hit
        // on an idle session is the submitter's. (Another session: this one
        // is its worker's until the turn that answered it ends.)
        let t = fe.open_session("bob").unwrap();
        fe.call(t, kenn()).unwrap();
        let m = server.metrics();
        assert_eq!(m.completion_cache.hits, 1);
        assert_eq!(m.coalesce_leader_runs, 1, "no second scan");
        let f = fe.shutdown();
        assert_eq!((f.immediate_grants, f.ticket_waits), (2, 0));
        assert_eq!(
            (f.handed_over, f.answered_by_worker, f.answered_inline),
            (1, 1, 1)
        );
        let queued = server.obs().stage_snapshot(Stage::FrontendQueue).count();
        assert_eq!(queued, f.submitted + f.handed_over);
    }

    #[test]
    fn a_handed_over_run_commits_its_session_once() {
        let fe = frontend(ServerConfig::for_tests());
        let server = fe.server().clone();
        let s = fe.open_session("alice").unwrap();
        // "Kennedys" matches nothing, so the run suggests "Kennedy".
        let kennedys = TripleInput::new("?p", "surname", "Kennedys");
        let row = |input| FrontRequest::SetRow { idx: 0, input };
        fe.call(s, row(kennedys.clone())).unwrap();
        let out = match fe.call(s, FrontRequest::Run).unwrap() {
            FrontResponse::Run(out) => out,
            other => panic!("unexpected response {other:?}"),
        };
        assert!(!out.cached);
        assert_eq!(out.attempts, 1, "the attempt counted once");
        let m = server.metrics();
        assert_eq!(m.run_requests, 1);
        assert_eq!((m.run_cache.hits, m.run_cache.misses), (0, 1));
        assert_eq!(server.admission_load(), (0, 0));
        // The suggestions were committed: accepting one works, once.
        fe.call(s, FrontRequest::ApplyAlternative { index: 0 })
            .expect("the run's suggestions were committed");

        // A run whose rows are edited between its counted lookup and its
        // scan is superseded: it keeps its attempt, not its suggestions.
        fe.call(s, row(TripleInput::new("?p", "surname", "Kennedie")))
            .unwrap();
        let pins = pin_workers(&fe, FrontendConfig::for_tests().workers);
        let Err(later) = answered_by_return(&fe, s, FrontRequest::Run) else {
            panic!("a cold run was answered without a worker");
        };
        server.set_row(s, 0, kennedys).unwrap();
        drop(pins);
        match later
            .recv()
            .unwrap()
            .expect("the stale run is still served")
        {
            FrontResponse::Run(out) => assert_eq!(out.attempts, 2),
            other => panic!("unexpected response {other:?}"),
        }
        assert!(matches!(
            fe.call(s, FrontRequest::ApplyAlternative { index: 0 }),
            Err(ServerError::UnknownSuggestion { available: 0, .. })
        ));
        fe.shutdown();
    }

    #[test]
    fn a_full_gate_parks_the_submitters_session_and_a_worker_answers() {
        let fe = frontend(ServerConfig {
            max_in_flight: 1,
            max_queue_depth: 8,
            queue_wait: Duration::from_secs(5),
            ..ServerConfig::for_tests()
        });
        let s = fe.open_session("alice").unwrap();
        let slot = fe.server().hold_slot().unwrap();
        let kenn = FrontRequest::Complete {
            typed: "Kenn".into(),
        };
        let Err(later) = answered_by_return(&fe, s, kenn) else {
            panic!("answered through a full gate");
        };
        // Parked by the time `submit` returned — on a ticket, not on a
        // worker: there is no second admission path.
        let m = fe.metrics();
        assert_eq!((m.parked, m.ticket_waits, m.immediate_grants), (1, 1, 0));
        drop(slot);
        later.recv().unwrap().expect("granted once the slot frees");
        let m = fe.shutdown();
        assert_eq!(m.ticket_grants + m.late_grants, 1);
        assert_eq!(
            (m.answered_inline, m.answered_by_worker, m.handed_over),
            (0, 1, 0),
            "a granted ticket resumes on a worker, which runs both halves"
        );
    }

    /// Each link's callback submits to the next idle session. Inline
    /// dispatch must not nest: the stack stays a frame or two deep however
    /// long the chain.
    #[test]
    fn a_chain_of_submitting_callbacks_does_not_grow_the_stack() {
        const LINKS: usize = 10_000;
        struct Chain {
            fe: std::sync::Weak<Frontend>,
            sessions: Vec<SessionId>,
            /// Per thread: lowest and highest address of a callback's local.
            frames: Mutex<HashMap<std::thread::ThreadId, (usize, usize)>>,
            done: Mutex<mpsc::Sender<()>>,
        }
        fn link(chain: &Arc<Chain>, i: usize) {
            let Some(fe) = chain.fe.upgrade() else {
                return;
            };
            let next = chain.clone();
            fe.submit(
                chain.sessions[i],
                FrontRequest::SetModifiers {
                    modifiers: Default::default(),
                },
                Box::new(move |r| {
                    r.expect("an edit succeeds");
                    let local = 0u8;
                    let at = std::ptr::addr_of!(local) as usize;
                    {
                        let mut frames = next.frames.lock().unwrap();
                        let seen = frames
                            .entry(std::thread::current().id())
                            .or_insert((at, at));
                        *seen = (seen.0.min(at), seen.1.max(at));
                    }
                    if i + 1 < next.sessions.len() {
                        link(&next, i + 1);
                    } else {
                        next.done.lock().unwrap().send(()).unwrap();
                    }
                }),
            )
            .unwrap();
        }

        let mut fe = Arc::new(Frontend::new(
            Arc::new(SapphireServer::new(
                pum(),
                ServerConfig {
                    max_sessions: LINKS,
                    ..ServerConfig::for_tests()
                },
            )),
            FrontendConfig::for_tests(),
        ));
        let (done, finished) = mpsc::channel();
        let chain = Arc::new(Chain {
            fe: Arc::downgrade(&fe),
            sessions: (0..LINKS)
                .map(|i| fe.open_session(&format!("user{i}")).unwrap())
                .collect(),
            frames: Mutex::new(HashMap::new()),
            done: Mutex::new(done),
        });
        link(&chain, 0);
        finished
            .recv_timeout(Duration::from_secs(60))
            .expect("the chain completes");
        for (thread, (low, high)) in chain.frames.lock().unwrap().iter() {
            assert!(
                high - low < 64 * 1024,
                "{thread:?}: callbacks ran {} bytes of stack apart",
                high - low
            );
        }
        // The last links may still be returning through their callbacks.
        let fe = loop {
            match Arc::try_unwrap(fe) {
                Ok(fe) => break fe,
                Err(still_shared) => {
                    fe = still_shared;
                    std::thread::yield_now();
                }
            }
        };
        let m = fe.shutdown();
        assert_eq!(m.completed, LINKS as u64);
        assert!(m.answered_inline > 0 && m.answered_by_worker > 0);
    }

    #[test]
    fn a_sampled_rejection_reaches_the_flight_recorder_tagged() {
        let server = Arc::new(SapphireServer::new(pum(), ServerConfig::for_tests()));
        server.obs().set_sampling(1);
        let fe = Frontend::new(
            server.clone(),
            FrontendConfig {
                workers: 1,
                session_queue_depth: 2,
            },
        );
        let s = fe.open_session("alice").unwrap();
        // The worker is inside a raw query's callback; a close and an edit
        // fill the session's backlog behind it.
        let release = pin_session(&fe, s);
        fe.submit(s, FrontRequest::Close, Box::new(|_| {})).unwrap();
        let (closed_tx, closed) = mpsc::channel();
        let (reopen, reopened) = mpsc::channel::<()>();
        fe.submit(
            s,
            FrontRequest::SetModifiers {
                modifiers: Default::default(),
            },
            Box::new(move |_| {
                closed_tx.send(()).unwrap();
                let _ = reopened.recv();
            }),
        )
        .unwrap();
        let kenn = FrontRequest::Complete {
            typed: "Kenn".into(),
        };
        let full = fe.submit(s, kenn, Box::new(|_| {})).unwrap_err();
        assert!(matches!(full, ServerError::Overloaded { .. }), "{full:?}");
        // Past the close, inside the edit's callback: the session is closed
        // and not yet forgotten.
        release.send(()).unwrap();
        closed.recv().unwrap();
        let gone = fe.submit(s, FrontRequest::Run, Box::new(|_| {}));
        assert_eq!(gone.unwrap_err(), ServerError::UnknownSession(s));
        drop(reopen);
        let m = fe.shutdown();
        assert_eq!((m.submitted, m.completed), (3, 3));

        let traces = server.obs().recorder().recent();
        for (kind, why) in [
            ("complete", &full),
            ("run", &ServerError::UnknownSession(s)),
        ] {
            let trace = traces
                .iter()
                .find(|t| t.kind == kind)
                .unwrap_or_else(|| panic!("the rejected {kind} left no trace"));
            assert!(
                trace
                    .spans
                    .iter()
                    .any(|span| span.tag == format!("rejected: {why}")),
                "{}",
                trace.render()
            );
        }
        assert_eq!(traces.len(), 5, "three answers, two rejections");
        let e2e = server.obs().stage_snapshot(Stage::EndToEnd);
        assert_eq!(e2e.count(), 5, "a rejection is timed end to end too");
    }

    #[test]
    fn session_queue_depth_is_typed_backpressure() {
        let fe = Frontend::new(
            Arc::new(SapphireServer::new(pum(), ServerConfig::for_tests())),
            FrontendConfig {
                workers: 1,
                session_queue_depth: 2,
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

    /// The names of this process's threads.
    #[cfg(target_os = "linux")]
    fn thread_names() -> Vec<String> {
        std::fs::read_dir("/proc/self/task")
            .unwrap()
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .map(|comm| comm.trim_end().to_string())
            .collect()
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn the_front_end_owns_no_threads() {
        let fe = frontend(ServerConfig::for_tests());
        let s = fe.open_session("alice").unwrap();
        let cold = FrontRequest::Complete {
            typed: "Kenn".into(),
        };
        let Err(later) = answered_by_return(&fe, s, cold) else {
            panic!("a cold completion was answered without a turn task");
        };
        later.recv().unwrap().expect("a turn task answers it");
        assert_eq!(fe.metrics().handed_over, 1);
        let mut names = thread_names();
        assert!(names.iter().any(|n| n.starts_with("sapphire-exec")));
        names.retain(|n| n.starts_with("sapphire-fe"));
        assert!(names.is_empty(), "front-end threads: {names:?}");
    }

    #[test]
    fn submissions_after_shutdown_are_rejected_typed() {
        let fe = frontend(ServerConfig::for_tests());
        let s = fe.open_session("alice").unwrap();
        let shared = fe.shared.clone();
        shared.reactor.drain();
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
}

//! Request execution: one dispatch, run by whoever holds the session.
//!
//! A thread *holds* a session from the moment it sets the phase tag to
//! `Running` ([`Turn`]) until it hands the session to its next state. Two
//! kinds of thread take turns:
//!
//! * a **worker** — an executor worker running a turn task
//!   ([`run_turns`]) — pops one ready session after another off the
//!   reactor and drives each head request to completion against the shared
//!   [`SapphireServer`](crate::server::SapphireServer);
//! * the **submitter** of a request that found its session idle runs the
//!   same [`Turn::dispatch`], but may neither wait nor work
//!   ([`Runner::Submitter`]): it answers session edits and response-cache
//!   hits on the spot and hands a request it cannot answer to a worker —
//!   once, past its counted cache lookup, slot in hand. A raw query is one
//!   of the three model-touching kinds like any other, bound for the same
//!   server; it is never response-cached, so a worker always finishes it;
//! * the **caller** — the thread inside the blocking
//!   [`Frontend::call`](super::Frontend::call) — takes the same turn as a
//!   submitter, but its thread waits for the answer anyway, so it may wait
//!   and work ([`Runner::Caller`]): the same counted lookup, and a miss runs
//!   on the calling thread instead of being handed over. It works only on
//!   the one request it submitted; what queued behind that request meanwhile
//!   is a worker's.
//!
//! Admission-controlled requests never park a thread: a full gate yields an
//! [`AdmissionTicket`](crate::admission::AdmissionTicket) and the *session*
//! parks (`Phase::AwaitingGrant`) while the thread moves on. The grant
//! callback — fired by whichever thread releases a slot — puts the session
//! back in the ready queue; the ticket's deadline, an executor timer, does
//! the same once its queue wait expires, and a worker settles it to a typed
//! [`ServerError::QueueTimeout`].
//!
//! Every one of these carries the session itself — its registry `Arc`, which
//! holds this queue — so no step looks a session up by id. The server's own
//! calls still do, which is how a request queued behind a `Close` answers
//! `UnknownSession`.

use std::borrow::Cow;
use std::cell::Cell;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use sapphire_core::exec;
use sapphire_obs::{RequestMark, Stage, Trace, TraceScope};

use crate::admission::{AdmissionPermit, AsyncAdmission, GrantCallback};
use crate::error::ServerError;
use crate::registry::OpenSession;
use crate::server::{Lookup, Missed, Reply, Request, RunOutput, What, Who};

use super::session::{
    FrontRequest, FrontResponse, HandedOver, Pending, PendingAdmission, Phase, QueuedRequest,
    ResponseCallback,
};
use super::Shared;

/// A turn task: operate on ready sessions until the reactor has none.
pub(crate) fn run_turns(shared: &Arc<Shared>) {
    while let Some(session) = shared.reactor.pop() {
        let followup = process(shared, &session);
        shared.reactor.done(followup);
    }
}

/// Who is taking a [`Turn`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Runner {
    /// A turn task: may wait in a flight and scan the model.
    Worker,
    /// The thread inside [`Frontend::submit`](super::Frontend::submit): may
    /// neither wait nor work.
    Submitter,
    /// The thread inside [`Frontend::call`](super::Frontend::call): it
    /// blocks until the answer either way, so it may wait in a flight and
    /// scan the model — but only for the one request it submitted.
    Caller,
}

/// Whether the thread still holds its session after a dispatch step.
///
/// Ownership is explicit, never inferred from the shared phase tag: once a
/// step lets go of the session (`Parked`), another thread can resume it
/// immediately — by the time this thread gets back to `finish()`, a `Running`
/// phase might be that other thread's, and touching it would put two threads
/// on one session (breaking per-session ordering).
#[must_use]
enum Ownership {
    /// The step answered its request; this thread still holds the session
    /// and must run `finish`.
    Held,
    /// The step parked the session on an admission ticket or handed its
    /// request to a worker; ownership went with it — hands off.
    Parked,
}

/// One thread's turn at one session: the thread set the phase to `Running`
/// and nobody else operates on the session until a step returns
/// [`Ownership::Parked`] or the thread calls [`finish`](Turn::finish).
struct Turn<'a> {
    shared: &'a Arc<Shared>,
    session: &'a Arc<OpenSession>,
    runner: Runner,
}

/// Operate on one scheduled session: resume its parked continuation first,
/// otherwise execute the next queued request. Returns the session if it
/// still has work and must be re-scheduled.
fn process(shared: &Arc<Shared>, session: &Arc<OpenSession>) -> Option<Arc<OpenSession>> {
    let mut st = session.queue.lock().unwrap();
    match st.phase {
        // A spurious ready entry (deadline timer racing a grant, or a
        // duplicate schedule): whoever owns the session now will
        // re-schedule it if needed.
        Phase::Idle | Phase::Running => return None,
        Phase::Queued | Phase::AwaitingGrant => {}
    }
    let turn = Turn {
        shared,
        session,
        runner: Runner::Worker,
    };
    let owned = match st.pending.take() {
        Some(Pending::Ticket(p)) => {
            st.phase = Phase::Running;
            drop(st);
            shared.reactor.note_unparked();
            turn.resolve_pending(p)
        }
        Some(Pending::Missed(h)) => {
            st.phase = Phase::Running;
            drop(st);
            turn.resume(h)
        }
        None => {
            let Some(q) = st.queue.pop_front() else {
                st.phase = Phase::Idle;
                return None;
            };
            st.phase = Phase::Running;
            drop(st);
            turn.start(q)
        }
    };
    match owned {
        Ownership::Parked => None,
        Ownership::Held => turn.finish(),
    }
}

thread_local! {
    /// True while this thread is inside [`dispatch_on_submitter`]. A response
    /// callback that submits sees it and queues instead of dispatching, so a
    /// chain of callbacks never nests a dispatch inside a dispatch.
    static DISPATCHING: Cell<bool> = const { Cell::new(false) };
}

/// Whether a submitting thread may take the turn itself, given that it
/// found the session idle. Two things say no:
///
/// * being inside another such turn already (see [`DISPATCHING`]);
/// * a session waiting for a worker. Like the admission gate, the front-end
///   lets no arrival barge past its queue — and a request handed over with
///   its slot must find itself at the head of that queue, not behind work
///   that needs the very slot it is holding: a burst from one submitting
///   thread would otherwise carry the whole gate into the ready queue and
///   have the requests ahead of it bounced `Overloaded`.
pub(crate) fn submitter_may_dispatch(shared: &Shared) -> bool {
    !DISPATCHING.get() && !shared.reactor.backlogged()
}

/// The submitting thread's turn: `q` found its session idle and the
/// submitter set the phase to `Running`. A [`Runner::Submitter`] answers `q`
/// if that takes neither waiting nor work, a [`Runner::Caller`] answers it
/// unless the gate is full; otherwise the session leaves this thread parked
/// on a ticket or handed over, and a worker answers.
pub(crate) fn dispatch_on_submitter(
    shared: &Arc<Shared>,
    session: &Arc<OpenSession>,
    q: QueuedRequest,
    runner: Runner,
) {
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            DISPATCHING.set(false);
        }
    }
    DISPATCHING.set(true);
    let _reset = Reset;
    let turn = Turn {
        shared,
        session,
        runner,
    };
    match turn.start(q) {
        Ownership::Parked => {}
        // Requests submitted meanwhile (by other threads, or by the
        // callback) queued behind this turn: they are a worker's.
        Ownership::Held => {
            if let Some(session) = turn.finish() {
                shared.schedule(session);
            }
        }
    }
}

/// Wrap a response callback so delivery seals the request's observability:
/// the `end_to_end` stage is submit → reply (queue wait, admission wait, and
/// execution included — the latency the *client* saw), and a sampled trace
/// is finished into the flight recorder. Fires exactly once because the
/// callback it wraps does.
fn wrap_reply(
    shared: &Arc<Shared>,
    respond: ResponseCallback,
    enqueued: Instant,
    trace: Option<Trace>,
) -> ResponseCallback {
    let obs = shared.server.obs().clone();
    Box::new(move |result| {
        obs.record(Stage::EndToEnd, enqueued.elapsed().as_micros() as u64);
        if let Some(t) = trace {
            obs.finish_trace(t);
        }
        respond(result);
    })
}

/// Record one wait (histogram always; span when traced).
fn note_wait(
    shared: &Shared,
    stage: Stage,
    since: Instant,
    waited_us: u64,
    trace: Option<&Trace>,
    tag: &'static str,
) {
    shared.server.obs().record(stage, waited_us);
    if let Some(t) = trace {
        t.add_span(stage.name(), since, waited_us, None, tag.to_string());
    }
}

/// Record one admission wait that began at `since` and ends now.
fn note_admission_wait(shared: &Shared, since: Instant, trace: Option<&Trace>, tag: &'static str) {
    let waited_us = since.elapsed().as_micros() as u64;
    note_wait(shared, Stage::AdmissionWait, since, waited_us, trace, tag);
}

fn front_response(reply: Reply) -> FrontResponse {
    match reply {
        Reply::Completion(found) => FrontResponse::Completion(found),
        Reply::Run { run, attempts } => FrontResponse::Run(RunOutput::new(run, attempts)),
        Reply::Raw(result) => FrontResponse::Query(result),
    }
}

impl Turn<'_> {
    /// Deliver one response; every accepted request passes through here
    /// exactly once. Counted before the callback runs, so a caller that has
    /// seen its answer finds it in the counters.
    fn reply(&self, respond: ResponseCallback, result: Result<FrontResponse, ServerError>) {
        let counters = &self.shared.counters;
        let by = match self.runner {
            Runner::Worker => &counters.answered_by_worker,
            Runner::Submitter | Runner::Caller => &counters.answered_inline,
        };
        by.fetch_add(1, Ordering::Relaxed);
        respond(result);
    }

    /// Begin the head request `q`. The `frontend_queue` stage is the time a
    /// request waited for a worker: submit → pick-up here, nothing when the
    /// submitting thread dispatches it (recorded as 0, so the stage still
    /// counts every request).
    fn start(&self, q: QueuedRequest) -> Ownership {
        let queued_us = match self.runner {
            Runner::Worker => q.enqueued.elapsed().as_micros() as u64,
            Runner::Submitter | Runner::Caller => 0,
        };
        note_wait(
            self.shared,
            Stage::FrontendQueue,
            q.enqueued,
            queued_us,
            q.trace.as_ref(),
            "",
        );
        let respond = wrap_reply(self.shared, q.respond, q.enqueued, q.trace.clone());
        self.dispatch(q.request, respond, q.trace)
    }

    /// A session woke from `AwaitingGrant`: claim the grant, or settle the
    /// expired ticket, or re-park on a spurious wake.
    fn resolve_pending(&self, p: PendingAdmission) -> Ownership {
        let shared = self.shared;
        if let Some(permit) = p.ticket.try_claim() {
            shared
                .counters
                .ticket_grants
                .fetch_add(1, Ordering::Relaxed);
            note_admission_wait(shared, p.since, p.trace.as_ref(), "granted");
            return self.execute(p.request, permit, p.respond, p.trace);
        }
        if p.ticket.expired() {
            return match p.ticket.cancel() {
                // The grant raced the deadline: the slot is ours — use it
                // rather than bounce a request the gate already admitted.
                Some(permit) => {
                    shared.counters.late_grants.fetch_add(1, Ordering::Relaxed);
                    note_admission_wait(shared, p.since, p.trace.as_ref(), "late");
                    self.execute(p.request, permit, p.respond, p.trace)
                }
                None => {
                    note_admission_wait(shared, p.since, p.trace.as_ref(), "timeout");
                    let err = ServerError::QueueTimeout {
                        waited_ms: p.since.elapsed().as_millis() as u64,
                    };
                    shared.server.note_rejection(&err);
                    shared
                        .counters
                        .queue_timeouts
                        .fetch_add(1, Ordering::Relaxed);
                    self.reply(p.respond, Err(err));
                    Ownership::Held
                }
            };
        }
        // Spurious wake (stale deadline timer after an early grant-and-repark,
        // or a duplicate schedule): re-park via the shared race-safe path.
        self.park(p)
    }

    /// Park `p` on the session (`AwaitingGrant`), double-checking the grant
    /// under the session lock first: the grant callback skips sessions it
    /// sees `Running`, so a grant that fired between the admission call (or
    /// the spurious wake) and this lock would otherwise be lost — with the
    /// session left holding a granted slot until its deadline, or forever
    /// when the ticket has none.
    fn park(&self, p: PendingAdmission) -> Ownership {
        let shared = self.shared;
        let deadline = p.ticket.deadline();
        let mut st = self.session.queue.lock().unwrap();
        if let Some(permit) = p.ticket.try_claim() {
            shared
                .counters
                .ticket_grants
                .fetch_add(1, Ordering::Relaxed);
            drop(st);
            note_admission_wait(shared, p.since, p.trace.as_ref(), "granted");
            return self.execute(p.request, permit, p.respond, p.trace);
        }
        // Any grant from here on finds the phase `AwaitingGrant` once we
        // release the lock (its callback blocks on this session lock), so the
        // wake cannot be lost.
        st.pending = Some(Pending::Ticket(p));
        st.phase = Phase::AwaitingGrant;
        // Count the park while still holding the session lock: a resuming
        // worker needs this lock to take `pending`, so its `note_unparked`
        // strictly follows this increment — the pair can never invert into a
        // counter underflow. (Session lock → reactor lock is the crate-wide
        // order; the reactor never takes a session lock.)
        shared.reactor.note_parked();
        drop(st);
        // A one-shot wake, never cancelled: a session whose grant came first
        // just sees a spurious wake at its old deadline. It holds the session
        // weakly, so a stale timer keeps no closed session alive.
        if let Some(at) = deadline {
            let (shared, session) = (Arc::downgrade(self.shared), Arc::downgrade(self.session));
            exec::global().spawn_at(at, move || {
                if let (Some(shared), Some(session)) = (shared.upgrade(), session.upgrade()) {
                    shared.on_grant(session);
                }
            });
        }
        Ownership::Parked
    }

    /// The grant callback of this session's ticket: makes the session ready
    /// again. It holds the front-end weakly and the session strongly — the
    /// gate keeps it only until it grants the ticket or the ticket is
    /// cancelled, and while it does, it is what keeps a parked session alive
    /// once the registry has let go of it (closed on the server itself).
    fn waker(&self) -> GrantCallback {
        let (shared, session) = (Arc::downgrade(self.shared), Arc::clone(self.session));
        Box::new(move || {
            if let Some(shared) = shared.upgrade() {
                shared.on_grant(session);
            }
        })
    }

    /// After one unit of owned work: hand the session to its next state.
    /// Returns the session when more queued work exists (the caller
    /// re-schedules it). Only called while this thread holds the session, so
    /// the phase here is necessarily our own `Running`.
    fn finish(&self) -> Option<Arc<OpenSession>> {
        let mut st = self.session.queue.lock().unwrap();
        debug_assert_eq!(st.phase, Phase::Running, "finish() requires ownership");
        if st.queue.is_empty() {
            st.phase = Phase::Idle;
            None
        } else {
            st.phase = Phase::Queued;
            Some(Arc::clone(self.session))
        }
    }

    /// Execute one request from the head of a session's queue: session edits
    /// answer on the spot; the three model-touching kinds go through the
    /// server's pre-gate and on to the non-blocking admission gate. The only
    /// place a [`FrontRequest`] turns into server calls, whoever runs it.
    fn dispatch(
        &self,
        request: FrontRequest,
        respond: ResponseCallback,
        trace: Option<Trace>,
    ) -> Ownership {
        let shared = self.shared;
        let sid = self.session.id();
        let what = match request {
            FrontRequest::SetRow { idx, input } => {
                let r = shared.server.set_row(sid, idx, input);
                self.reply(respond, r.map(|()| FrontResponse::Ack));
                return Ownership::Held;
            }
            FrontRequest::SetModifiers { modifiers } => {
                let r = shared.server.set_modifiers(sid, modifiers);
                self.reply(respond, r.map(|()| FrontResponse::Ack));
                return Ownership::Held;
            }
            FrontRequest::ApplyAlternative { index } => {
                let r = shared.server.apply_alternative(sid, index);
                self.reply(respond, r.map(FrontResponse::Table));
                return Ownership::Held;
            }
            FrontRequest::Close => {
                shared.server.close_session(sid);
                self.reply(respond, Ok(FrontResponse::Closed));
                return Ownership::Held;
            }
            FrontRequest::Query { query } => What::Raw {
                query: Cow::Owned(query),
            },
            FrontRequest::Complete { typed } => What::Complete {
                typed: Cow::Owned(typed),
                k: shared.server.model().config().k,
            },
            FrontRequest::Run => What::Run {
                query: None,
                tier_floor: 0,
            },
        };
        match shared.server.pre_gate(Who::Session(sid), what, None) {
            Ok(request) => self.admit_then(request, respond, trace),
            Err(e) => {
                self.reply(respond, Err(e));
                Ownership::Held
            }
        }
    }

    /// Non-blocking admission for a model-touching request: execute
    /// immediately on a free slot, park the session on a ticket otherwise.
    /// This is the point where the thread-per-request tier would park a
    /// whole thread.
    fn admit_then(
        &self,
        request: Request<'static>,
        respond: ResponseCallback,
        trace: Option<Trace>,
    ) -> Ownership {
        let shared = self.shared;
        let asked = Instant::now();
        let admission = shared
            .server
            .admission_gate()
            .admit_evented(|| self.waker());
        match admission {
            Ok(AsyncAdmission::Ready(permit)) => {
                shared
                    .counters
                    .immediate_grants
                    .fetch_add(1, Ordering::Relaxed);
                note_admission_wait(shared, asked, trace.as_ref(), "immediate");
                self.execute(request, permit, respond, trace)
            }
            Ok(AsyncAdmission::Queued(ticket)) => {
                shared.counters.ticket_waits.fetch_add(1, Ordering::Relaxed);
                self.park(PendingAdmission {
                    ticket,
                    request,
                    respond,
                    since: asked,
                    trace,
                })
            }
            Err(e) => {
                shared.server.note_rejection(&e);
                self.reply(respond, Err(e));
                Ownership::Held
            }
        }
    }

    /// Run a request through the server's post-gate half, permit in hand: a
    /// worker or a caller runs all of it; a submitter runs its first half —
    /// the counted cache lookup — and hands a miss over. The body executes
    /// inside this request's trace context with the request depth marked, so
    /// the server knows a front-end tier already owns the end-to-end
    /// measurement and the root trace.
    fn execute(
        &self,
        request: Request<'static>,
        permit: AdmissionPermit,
        respond: ResponseCallback,
        trace: Option<Trace>,
    ) -> Ownership {
        let shared = self.shared;
        let _mark = RequestMark::new();
        let _scope = TraceScope::enter(trace.clone());
        let result = match self.runner {
            Runner::Worker | Runner::Caller => shared.server.post_gate(request, permit),
            Runner::Submitter => match shared.server.lookup(request, permit) {
                Ok(Lookup::Hit(reply)) => Ok(reply),
                Ok(Lookup::Miss(missed)) => return self.hand_over(missed, respond, trace),
                Err(e) => Err(e),
            },
        };
        self.reply(respond, result.map(front_response));
        Ownership::Held
    }

    /// The submitter's counted lookup missed: leave the rest — the flight
    /// and possibly the scan — to a worker. The request keeps its slot
    /// across the hand-off exactly as a granted ticket does, and the session
    /// waits in the ready queue like any other runnable one (it was never
    /// parked on the gate, so the reactor's parked count is not involved).
    fn hand_over(
        &self,
        missed: Missed,
        respond: ResponseCallback,
        trace: Option<Trace>,
    ) -> Ownership {
        let handed = HandedOver {
            missed,
            respond,
            since: Instant::now(),
            trace,
        };
        let mut st = self.session.queue.lock().unwrap();
        st.pending = Some(Pending::Missed(handed));
        st.phase = Phase::Queued;
        drop(st);
        self.shared
            .counters
            .handed_over
            .fetch_add(1, Ordering::Relaxed);
        self.shared.schedule(Arc::clone(self.session));
        Ownership::Parked
    }

    /// A worker picks up a handed-over request: the second half of the
    /// post-gate, back inside the request's trace context. Its wait for this
    /// worker is a `frontend_queue` observation of its own.
    fn resume(&self, h: HandedOver) -> Ownership {
        let shared = self.shared;
        let waited_us = h.since.elapsed().as_micros() as u64;
        note_wait(
            shared,
            Stage::FrontendQueue,
            h.since,
            waited_us,
            h.trace.as_ref(),
            "handed over",
        );
        let _mark = RequestMark::new();
        let _scope = TraceScope::enter(h.trace);
        let result = shared.server.work(h.missed);
        self.reply(h.respond, result.map(front_response));
        Ownership::Held
    }
}

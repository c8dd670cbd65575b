//! The worker pool: the only threads that execute requests.
//!
//! Each worker loops on [`Reactor::next`], claims one ready session, and
//! drives its head request to completion against the shared
//! [`SapphireServer`]. Admission-controlled requests never park the worker:
//! a full gate yields an [`AdmissionTicket`] and the *session* parks
//! (`Phase::AwaitingGrant`) while the worker moves on to other sessions.
//! The grant callback — fired by whichever thread releases a slot — puts the
//! session back in the ready queue; the deadline sweep does the same for
//! tickets whose queue wait expired, and the worker settles those to a typed
//! [`ServerError::QueueTimeout`].

use std::borrow::Cow;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use sapphire_obs::{RequestMark, Stage, Trace, TraceScope};

use crate::admission::{AdmissionPermit, AsyncAdmission};
use crate::error::ServerError;
use crate::registry::SessionId;
use crate::server::{Reply, Request, RunOutput, What, Who};

use super::session::{FrontRequest, FrontResponse, PendingAdmission, Phase, ResponseCallback};
use super::{RawTarget, Shared};

pub(crate) fn worker_loop(shared: Arc<Shared>) {
    loop {
        match shared.reactor.next() {
            super::reactor::Work::Exit => return,
            super::reactor::Work::Session(id) => {
                let followup = process(&shared, id);
                shared.reactor.done(followup);
            }
        }
    }
}

/// Operate on one scheduled session: resolve a parked admission first,
/// otherwise execute the next queued request. Returns the session id if it
/// still has work and must be re-scheduled.
fn process(shared: &Arc<Shared>, id: u64) -> Option<u64> {
    let state_arc = shared.session(id)?;
    let mut st = state_arc.lock().unwrap();
    match st.phase {
        // A spurious ready entry (deadline sweep racing a grant, or a
        // duplicate schedule): whoever owns the session now will
        // re-schedule it if needed.
        Phase::Idle | Phase::Running => return None,
        Phase::Queued | Phase::AwaitingGrant => {}
    }

    if let Some(p) = st.pending.take() {
        st.phase = Phase::Running;
        drop(st);
        shared.reactor.note_unparked();
        match resolve_pending(shared, id, p, &state_arc) {
            Ownership::Parked => return None,
            Ownership::Held => return finish(shared, &state_arc, id),
        }
    }

    let Some(q) = st.queue.pop_front() else {
        st.phase = Phase::Idle;
        let closed = st.closed;
        drop(st);
        if closed {
            shared.forget_session(id);
        }
        return None;
    };
    st.phase = Phase::Running;
    drop(st);
    // The time between submit() accepting the request and a worker picking
    // it up: the front-end's own queueing stage.
    let queued_us = q.enqueued.elapsed().as_micros() as u64;
    shared.server.obs().record(Stage::FrontendQueue, queued_us);
    if let Some(t) = &q.trace {
        t.add_span(
            Stage::FrontendQueue.name(),
            q.enqueued,
            queued_us,
            None,
            String::new(),
        );
    }
    let respond = wrap_reply(shared, q.respond, q.enqueued, q.trace.clone());
    match dispatch(shared, id, q.request, respond, q.trace, &state_arc) {
        Ownership::Parked => None,
        Ownership::Held => finish(shared, &state_arc, id),
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

/// Record one admission wait (histogram always; span when traced).
fn note_admission_wait(
    shared: &Arc<Shared>,
    since: Instant,
    trace: Option<&Trace>,
    tag: &'static str,
) {
    let waited_us = since.elapsed().as_micros() as u64;
    shared.server.obs().record(Stage::AdmissionWait, waited_us);
    if let Some(t) = trace {
        t.add_span(
            Stage::AdmissionWait.name(),
            since,
            waited_us,
            None,
            tag.to_string(),
        );
    }
}

/// Whether the worker still owns its session after a dispatch step.
///
/// Ownership is explicit, never inferred from the shared phase tag: once a
/// step parks the session on an admission ticket (`Parked`), a grant can
/// resume it on *another* worker immediately — by the time this worker gets
/// back to `finish()`, a `Running` phase might be that other worker's, and
/// touching it would put two workers on one session (breaking per-session
/// ordering).
#[must_use]
enum Ownership {
    /// The step completed; this worker still owns the session and must run
    /// `finish`.
    Held,
    /// The step parked the session on an admission ticket; ownership
    /// transferred to the grant/deadline machinery — hands off.
    Parked,
}

/// A session woke from `AwaitingGrant`: claim the grant, or settle the
/// expired ticket, or re-park on a spurious wake.
fn resolve_pending(
    shared: &Arc<Shared>,
    id: u64,
    p: PendingAdmission,
    state_arc: &Arc<std::sync::Mutex<super::session::SessionState>>,
) -> Ownership {
    if let Some(permit) = p.ticket.try_claim() {
        shared
            .counters
            .ticket_grants
            .fetch_add(1, Ordering::Relaxed);
        note_admission_wait(shared, p.since, p.trace.as_ref(), "granted");
        execute(shared, p.request, permit, p.respond, p.trace);
        return Ownership::Held;
    }
    if p.ticket.expired() {
        match p.ticket.cancel() {
            // The grant raced the deadline: the slot is ours — use it
            // rather than bounce a request the gate already admitted.
            Some(permit) => {
                shared.counters.late_grants.fetch_add(1, Ordering::Relaxed);
                note_admission_wait(shared, p.since, p.trace.as_ref(), "late");
                execute(shared, p.request, permit, p.respond, p.trace);
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
                shared.reply(p.respond, Err(err));
            }
        }
        return Ownership::Held;
    }
    // Spurious wake (stale deadline entry after an early grant-and-repark,
    // or a duplicate schedule): re-park via the shared race-safe path.
    park(shared, id, p, state_arc)
}

/// Park `p` on the session (`AwaitingGrant`), double-checking the grant
/// under the session lock first: the grant callback skips sessions it sees
/// `Running`, so a grant that fired between the admission call (or the
/// spurious wake) and this lock would otherwise be lost — with the session
/// left holding a granted slot until its deadline, or forever when the
/// ticket has none.
fn park(
    shared: &Arc<Shared>,
    id: u64,
    p: PendingAdmission,
    state_arc: &Arc<std::sync::Mutex<super::session::SessionState>>,
) -> Ownership {
    let deadline = p.ticket.deadline();
    let mut st = state_arc.lock().unwrap();
    if let Some(permit) = p.ticket.try_claim() {
        shared
            .counters
            .ticket_grants
            .fetch_add(1, Ordering::Relaxed);
        drop(st);
        note_admission_wait(shared, p.since, p.trace.as_ref(), "granted");
        execute(shared, p.request, permit, p.respond, p.trace);
        return Ownership::Held;
    }
    // Any grant from here on finds the phase `AwaitingGrant` once we
    // release the lock (its callback blocks on this session lock), so the
    // wake cannot be lost.
    st.pending = Some(p);
    st.phase = Phase::AwaitingGrant;
    // Count the park while still holding the session lock: a resuming
    // worker needs this lock to take `pending`, so its `note_unparked`
    // strictly follows this increment — the pair can never invert into a
    // counter underflow. (Session lock → reactor lock is the crate-wide
    // order; the reactor never takes a session lock.)
    shared.reactor.note_parked();
    drop(st);
    if let Some(at) = deadline {
        shared.reactor.schedule_deadline(at, id);
    }
    Ownership::Parked
}

/// After one unit of owned work: hand the session to its next state.
/// Returns the id when more queued work exists (the caller re-schedules
/// it). Only called while this worker owns the session, so the phase here
/// is necessarily our own `Running`.
fn finish(
    shared: &Arc<Shared>,
    state_arc: &Arc<std::sync::Mutex<super::session::SessionState>>,
    id: u64,
) -> Option<u64> {
    let mut st = state_arc.lock().unwrap();
    debug_assert_eq!(st.phase, Phase::Running, "finish() requires ownership");
    if st.queue.is_empty() {
        st.phase = Phase::Idle;
        let closed = st.closed;
        drop(st);
        if closed {
            shared.forget_session(id);
        }
        None
    } else {
        st.phase = Phase::Queued;
        Some(id)
    }
}

/// Execute one request from the head of a session's queue: session edits
/// answer on the spot; the three model-touching kinds go through the
/// server's pre-gate and on to the non-blocking admission gate.
fn dispatch(
    shared: &Arc<Shared>,
    id: u64,
    request: FrontRequest,
    respond: ResponseCallback,
    trace: Option<Trace>,
    state_arc: &Arc<std::sync::Mutex<super::session::SessionState>>,
) -> Ownership {
    let sid = SessionId(id);
    let what = match request {
        FrontRequest::SetRow { idx, input } => {
            let r = shared.server.set_row(sid, idx, input);
            shared.reply(respond, r.map(|()| FrontResponse::Ack));
            return Ownership::Held;
        }
        FrontRequest::SetModifiers { modifiers } => {
            let r = shared.server.set_modifiers(sid, modifiers);
            shared.reply(respond, r.map(|()| FrontResponse::Ack));
            return Ownership::Held;
        }
        FrontRequest::ApplyAlternative { index } => {
            let r = shared.server.apply_alternative(sid, index);
            shared.reply(respond, r.map(FrontResponse::Table));
            return Ownership::Held;
        }
        FrontRequest::Close => {
            shared.server.close_session(sid);
            state_arc.lock().unwrap().closed = true;
            shared.reply(respond, Ok(FrontResponse::Closed));
            return Ownership::Held;
        }
        FrontRequest::Query { query } => {
            if let RawTarget::External(service) = &shared.raw {
                // The external service runs its own admission tiers (a
                // ClusterRouter never parks at the edge), so the worker
                // drives it directly — under this request's trace context,
                // with the front-end owning the end-to-end measurement.
                let _mark = RequestMark::new();
                let _scope = TraceScope::enter(trace);
                let r = shared.server.session_tenant(sid).and_then(|tenant| {
                    service
                        .execute_query(&tenant, &query)
                        .map(FrontResponse::Query)
                        .map_err(ServerError::from_service)
                });
                shared.reply(respond, r);
                return Ownership::Held;
            }
            let query = Cow::Owned(query);
            What::Raw { query }
        }
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
        Ok(request) => admit_then(shared, id, request, respond, trace, state_arc),
        Err(e) => {
            shared.reply(respond, Err(e));
            Ownership::Held
        }
    }
}

/// Non-blocking admission for a model-touching request: execute immediately
/// on a free slot, park the session on a ticket otherwise. This is the
/// point where the thread-per-request tier would park a whole thread.
fn admit_then(
    shared: &Arc<Shared>,
    id: u64,
    request: Request<'static>,
    respond: ResponseCallback,
    trace: Option<Trace>,
    state_arc: &Arc<std::sync::Mutex<super::session::SessionState>>,
) -> Ownership {
    let gate = shared.server.admission_gate().clone();
    let on_grant: crate::admission::GrantCallback = {
        let weak = Arc::downgrade(shared);
        Box::new(move || {
            if let Some(shared) = weak.upgrade() {
                shared.on_grant(id);
            }
        })
    };
    let asked = Instant::now();
    match gate.admit_evented(on_grant) {
        Ok(AsyncAdmission::Ready(permit)) => {
            shared
                .counters
                .immediate_grants
                .fetch_add(1, Ordering::Relaxed);
            note_admission_wait(shared, asked, trace.as_ref(), "immediate");
            execute(shared, request, permit, respond, trace);
            Ownership::Held
        }
        Ok(AsyncAdmission::Queued(ticket)) => {
            shared.counters.ticket_waits.fetch_add(1, Ordering::Relaxed);
            park(
                shared,
                id,
                PendingAdmission {
                    ticket,
                    request,
                    respond,
                    since: asked,
                    trace,
                },
                state_arc,
            )
        }
        Err(e) => {
            shared.server.note_rejection(&e);
            shared.reply(respond, Err(e));
            Ownership::Held
        }
    }
}

/// Run a request through the server's post-gate half, permit in hand. The
/// body executes inside this request's trace context with the request depth
/// marked, so the server knows a front-end tier already owns the end-to-end
/// measurement and the root trace.
fn execute(
    shared: &Arc<Shared>,
    mut request: Request<'static>,
    permit: AdmissionPermit,
    respond: ResponseCallback,
    trace: Option<Trace>,
) {
    let _mark = RequestMark::new();
    let _scope = TraceScope::enter(trace);
    // Sampled only now, after the grant: the floor should reflect the
    // backlog this front-end still faces while the run holds its slot.
    request.raise_run_floor(|| shed_floor(shared));
    let result = shared.server.post_gate(request, permit);
    shared.reply(
        respond,
        result.map(|reply| match reply {
            Reply::Completion(found) => FrontResponse::Completion(found),
            Reply::Run { run, attempts } => FrontResponse::Run(RunOutput::new(run, attempts)),
            Reply::Raw(result) => FrontResponse::Query(result),
        }),
    );
}

/// Front-end-initiated shedding: pick a degradation-tier floor from the
/// reactor's OWN ready-queue depth, so fidelity drops while work is still
/// queued in the front-end — before the server's admission queue (the
/// signal `SapphireServer::qsm_tier` watches) ever sees the backlog. The
/// floor rides the same `run_tiered` surface a cluster edge uses, so
/// tier-keyed caching and the tier-0 isolation guarantee hold unchanged.
///
/// Ladder, mirroring [`SapphireServer::shed_pressure_tier`]: a ready queue
/// deeper than the threshold sheds tier 1; deeper than twice the threshold
/// sheds tier 2. `None` (the default) disables front-end shedding.
fn shed_floor(shared: &Shared) -> usize {
    let Some(threshold) = shared.config.shed_ready_threshold else {
        return 0;
    };
    let (ready, _parked, _busy) = shared.reactor.load();
    let floor = if ready > threshold.saturating_mul(2) {
        2
    } else if ready > threshold {
        1
    } else {
        0
    };
    if floor > 0 {
        shared
            .counters
            .shed_dispatches
            .fetch_add(1, Ordering::Relaxed);
    }
    floor
}

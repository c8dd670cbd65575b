//! The front-end's per-session state machine.
//!
//! A session at the evented tier is *data*, not a parked thread: a FIFO
//! queue of not-yet-executed requests plus a phase tag saying where the
//! session currently lives. It sits in the session's registry entry
//! ([`OpenSession`](crate::registry::OpenSession)), beside the server's
//! state, so it opens and closes with the session. Exactly one thread
//! operates on a session at a time (the phase tag enforces it), so
//! per-session request order is the submission order — the property the
//! oracle test pins against the thread-per-request tier.

use std::collections::VecDeque;
use std::time::Instant;

use sapphire_core::qcm::CompletionResult;
use sapphire_core::session::{Modifiers, TripleInput};
use sapphire_sparql::{Query, QueryResult};

use crate::admission::AdmissionTicket;
use crate::error::ServerError;
use crate::server::RunOutput;
use sapphire_core::AnswerTable;

/// One request submitted to the evented front-end.
#[derive(Debug)]
pub enum FrontRequest {
    /// QCM: complete the term being typed (admission-controlled).
    Complete {
        /// The text typed so far.
        typed: String,
    },
    /// QSM + execution: press "Run" (admission-controlled).
    Run,
    /// Replace one triple-pattern row (immediate; no admission).
    SetRow {
        /// Row index.
        idx: usize,
        /// The new row content.
        input: TripleInput,
    },
    /// Replace the session's query modifiers (immediate; no admission).
    SetModifiers {
        /// The new modifiers.
        modifiers: Modifiers,
    },
    /// Accept a "did you mean" alternative from the last run (immediate).
    ApplyAlternative {
        /// Index into the last run's alternatives.
        index: usize,
    },
    /// Execute a raw parsed query on the session's server, billed to this
    /// session's tenant (admission-controlled, single-flighted, never
    /// response-cached).
    Query {
        /// The parsed query.
        query: Query,
    },
    /// Close the session. Requests already queued behind the close still
    /// execute, and answer `UnknownSession`; the session is freed once they
    /// have drained.
    Close,
}

impl FrontRequest {
    /// Stable label for traces and stage metrics.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            FrontRequest::Complete { .. } => "complete",
            FrontRequest::Run => "run",
            FrontRequest::SetRow { .. } => "set_row",
            FrontRequest::SetModifiers { .. } => "set_modifiers",
            FrontRequest::ApplyAlternative { .. } => "apply_alternative",
            FrontRequest::Query { .. } => "query",
            FrontRequest::Close => "close",
        }
    }
}

/// The response paired with each [`FrontRequest`] variant.
#[derive(Debug)]
pub enum FrontResponse {
    /// Answer to [`FrontRequest::Complete`].
    Completion(CompletionResult),
    /// Answer to [`FrontRequest::Run`].
    Run(RunOutput),
    /// Answer to [`FrontRequest::ApplyAlternative`].
    Table(AnswerTable),
    /// Answer to [`FrontRequest::Query`].
    Query(QueryResult),
    /// Answer to the state edits ([`SetRow`](FrontRequest::SetRow),
    /// [`SetModifiers`](FrontRequest::SetModifiers)).
    Ack,
    /// Answer to [`FrontRequest::Close`].
    Closed,
}

/// Completion callback: fires exactly once per submitted request, with the
/// response or a typed error.
///
/// It runs on whichever thread produced the answer: the *submitting* thread,
/// before [`Frontend::submit`](super::Frontend::submit) returns, for a
/// rejected submission and for an edit or a response-cache hit on an idle
/// session; a turn task on a shared executor worker otherwise. So it must
/// not block (on a worker it holds that executor worker and one of the
/// front-end's `workers` turns, on the submitter it stalls its own caller),
/// must not assume it is on a worker thread, and `submit` must not be
/// called while holding a lock the callback takes. It may submit follow-up
/// requests (the closed-loop bench drives itself this way); those never run
/// nested inside it — a submission made from within an answering callback
/// is queued.
pub type ResponseCallback = Box<dyn FnOnce(Result<FrontResponse, ServerError>) + Send>;

/// Where a session currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// No queued work; not scheduled anywhere.
    Idle,
    /// In the reactor's ready queue, waiting for a worker.
    Queued,
    /// A thread — a worker, or the submitter of a request that found the
    /// session idle — is operating on it right now.
    Running,
    /// The head request holds an [`AdmissionTicket`]; the session re-enters
    /// the ready queue when the grant callback (or the deadline timer)
    /// fires.
    AwaitingGrant,
}

/// A request parked between the server's two halves on a queued admission
/// ticket: already counted, resolved, and snapshotted by the pre-gate.
pub(crate) struct PendingAdmission {
    pub(crate) ticket: AdmissionTicket,
    pub(crate) request: crate::server::Request<'static>,
    pub(crate) respond: ResponseCallback,
    pub(crate) since: Instant,
    /// The sampled trace following this request across its park (None when
    /// the request is untraced).
    pub(crate) trace: Option<sapphire_obs::Trace>,
}

/// A request a submitting thread took past its counted cache lookup and may
/// take no further: admitted, charged, slot in hand, waiting for a worker
/// to run [`SapphireServer::work`](crate::server::SapphireServer::work).
pub(crate) struct HandedOver {
    pub(crate) missed: crate::server::Missed,
    pub(crate) respond: ResponseCallback,
    /// When the submitter let go of it — the origin of the worker wait.
    pub(crate) since: Instant,
    pub(crate) trace: Option<sapphire_obs::Trace>,
}

/// The head request of a session that has started but not finished: the
/// session's parked continuation. One lives in each session's state, so the
/// ticket stays inline rather than boxed on every park.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Pending {
    /// Before the gate's grant: the session is `AwaitingGrant` and counted
    /// in the reactor's parked set.
    Ticket(PendingAdmission),
    /// Past the counted lookup: the session is `Queued`, in the ready queue
    /// like any other runnable session.
    Missed(HandedOver),
}

/// One submission waiting in a session's FIFO queue.
pub(crate) struct QueuedRequest {
    pub(crate) request: FrontRequest,
    pub(crate) respond: ResponseCallback,
    /// When [`Frontend::submit`](super::Frontend::submit) accepted it — the
    /// origin of the `frontend_queue` and `end_to_end` stage measurements.
    pub(crate) enqueued: Instant,
    /// The sampled trace begun at submission (None when untraced).
    pub(crate) trace: Option<sapphire_obs::Trace>,
}

/// The front-end's view of one session.
pub(crate) struct SessionState {
    pub(crate) queue: VecDeque<QueuedRequest>,
    pub(crate) phase: Phase,
    pub(crate) pending: Option<Pending>,
}

impl SessionState {
    pub(crate) fn new() -> Self {
        SessionState {
            queue: VecDeque::new(),
            phase: Phase::Idle,
            pending: None,
        }
    }

    /// Queued requests plus the one parked on a ticket or handed over (the
    /// session's whole backlog).
    pub(crate) fn backlog(&self) -> usize {
        self.queue.len() + usize::from(self.pending.is_some())
    }
}

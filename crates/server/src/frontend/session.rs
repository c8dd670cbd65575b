//! The front-end's per-session state machine.
//!
//! A session at the evented tier is *data*, not a parked thread: a FIFO
//! queue of not-yet-executed requests plus a phase tag saying where the
//! session currently lives. Exactly one worker operates on a session at a
//! time (the phase tag enforces it), so per-session request order is the
//! submission order — the property the oracle test pins against the
//! thread-per-request tier.

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
    /// Execute a raw parsed query on the front-end's raw
    /// [`QueryService`](sapphire_endpoint::QueryService) target, billed to
    /// this session's tenant. Admission-controlled when the target is the
    /// session server itself.
    Query {
        /// The parsed query.
        query: Query,
    },
    /// Close the session. Requests already queued behind the close still
    /// execute (and answer `UnknownSession`); the front-end forgets the
    /// session once its queue drains.
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
/// response or a typed error. Runs on a front-end worker thread (or, for
/// submissions rejected synchronously, on the submitting thread) — it must
/// not block for long, but it may submit follow-up requests (the closed-loop
/// bench drives itself this way).
pub type ResponseCallback = Box<dyn FnOnce(Result<FrontResponse, ServerError>) + Send>;

/// Where a session currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// No queued work; not scheduled anywhere.
    Idle,
    /// In the reactor's ready queue, waiting for a worker.
    Queued,
    /// A worker is operating on it right now.
    Running,
    /// The head request holds an [`AdmissionTicket`]; the session re-enters
    /// the ready queue when the grant callback (or the deadline sweep)
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
    pub(crate) pending: Option<PendingAdmission>,
    pub(crate) closed: bool,
}

impl SessionState {
    pub(crate) fn new() -> Self {
        SessionState {
            queue: VecDeque::new(),
            phase: Phase::Idle,
            pending: None,
            closed: false,
        }
    }

    /// Queued requests plus the one parked on admission (the session's
    /// whole backlog).
    pub(crate) fn backlog(&self) -> usize {
        self.queue.len() + usize::from(self.pending.is_some())
    }
}

//! Typed failures of the serving tier.

use sapphire_core::session::SessionError;
use sapphire_endpoint::{EndpointError, FederationError};

use crate::registry::SessionId;

/// Everything that can go wrong serving a request.
///
/// Overload conditions are *typed*, not stringly: load generators and
/// clients match on [`ServerError::Overloaded`] / [`ServerError::QueueTimeout`]
/// to distinguish back-pressure (retry later, shed load) from real failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerError {
    /// Admission control rejected the request outright: the in-flight limit
    /// was reached and the wait queue was already full.
    Overloaded {
        /// Requests in flight at rejection time.
        in_flight: usize,
        /// Requests already queued at rejection time.
        queue_depth: usize,
    },
    /// The request was queued by admission control but no slot freed up
    /// before its wait deadline.
    QueueTimeout {
        /// How long the request waited, in milliseconds.
        waited_ms: u64,
    },
    /// The request was admitted but its execution blew a work budget at the
    /// backend — the service-level surfacing of
    /// [`sapphire_endpoint::EndpointError::Timeout`].
    Timeout {
        /// Work units consumed before the backend gave up.
        work_used: u64,
    },
    /// No session with this id exists (never created, or closed).
    UnknownSession(SessionId),
    /// The server's session registry is full.
    SessionLimit {
        /// Sessions currently open.
        open: usize,
        /// Registry capacity.
        limit: usize,
    },
    /// A "did you mean" accept referenced a suggestion that does not exist
    /// (no run yet, or the index is out of range).
    UnknownSuggestion {
        /// Requested alternative index.
        index: usize,
        /// How many alternatives the last run produced.
        available: usize,
    },
    /// The evented front-end is draining and no longer accepts new
    /// requests; queued work is still completed (see
    /// [`crate::frontend::Frontend::shutdown`]).
    ShuttingDown,
    /// The session's text boxes do not form a valid query.
    Session(SessionError),
    /// A remote replica could not be reached, or the connection died
    /// mid-call (connect refused, reset, read deadline, short read) — the
    /// typed surfacing of a wire-transport failure. Retryable: the request
    /// never completed on the other side's *data* path, so failing over to
    /// a sibling replica is safe and is exactly what the cluster router's
    /// bounded retry does with it.
    Unreachable {
        /// Short machine-stable reason: `"connect"`, `"reset"`, `"timeout"`,
        /// `"short read"`, `"closed"`.
        reason: String,
    },
    /// The shared model's backend (federation/endpoints) failed.
    Backend(String),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Overloaded {
                in_flight,
                queue_depth,
            } => {
                write!(
                    f,
                    "server overloaded ({in_flight} in flight, {queue_depth} queued)"
                )
            }
            ServerError::QueueTimeout { waited_ms } => {
                write!(
                    f,
                    "request timed out after {waited_ms}ms in the admission queue"
                )
            }
            ServerError::Timeout { work_used } => {
                write!(f, "backend timed out after {work_used} work units")
            }
            ServerError::UnknownSession(id) => write!(f, "unknown session {id:?}"),
            ServerError::SessionLimit { open, limit } => {
                write!(f, "session registry full ({open}/{limit})")
            }
            ServerError::UnknownSuggestion { index, available } => {
                write!(f, "no suggestion at index {index} ({available} available)")
            }
            ServerError::ShuttingDown => write!(f, "front-end shutting down"),
            ServerError::Session(e) => write!(f, "session error: {e}"),
            ServerError::Unreachable { reason } => {
                write!(f, "replica unreachable ({reason})")
            }
            ServerError::Backend(m) => write!(f, "backend failure: {m}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<SessionError> for ServerError {
    fn from(e: SessionError) -> Self {
        ServerError::Session(e)
    }
}

impl ServerError {
    /// True for back-pressure rejections (overload, queue timeout, backend
    /// work-budget timeout, unreachable replica) — the request was turned
    /// away or cut off by a resource limit and may be retried later.
    pub fn is_rejection(&self) -> bool {
        matches!(
            self,
            ServerError::Overloaded { .. }
                | ServerError::QueueTimeout { .. }
                | ServerError::Timeout { .. }
                | ServerError::Unreachable { .. }
        )
    }
}

/// A shard's failure as the federated plan sees it, when the cluster edge
/// presents the shard as an [`Endpoint`](sapphire_endpoint::Endpoint):
/// back-pressure keeps its retryable type (a queue-deadline miss no longer
/// knows its in-flight count), and everything else is an evaluation failure
/// carrying the server's own message. [`from_federation`] is the way back.
impl From<ServerError> for EndpointError {
    fn from(e: ServerError) -> Self {
        match e {
            ServerError::Overloaded { in_flight, .. } => EndpointError::Overloaded { in_flight },
            ServerError::QueueTimeout { .. } => EndpointError::Overloaded { in_flight: 0 },
            ServerError::Timeout { work_used } => EndpointError::Timeout { work_used },
            ServerError::Unreachable { reason } => EndpointError::Unreachable { reason },
            other => EndpointError::Eval(other.to_string()),
        }
    }
}

/// Flatten a federation failure into a `ServerError`, preserving the typed
/// back-pressure variants from the endpoint layer.
pub fn from_federation(e: FederationError) -> ServerError {
    match e {
        // Endpoint-side resource limits are back-pressure, not data errors.
        FederationError::AllSourcesFailed(EndpointError::Timeout { work_used }) => {
            ServerError::Timeout { work_used }
        }
        FederationError::AllSourcesFailed(EndpointError::Overloaded { in_flight }) => {
            ServerError::Overloaded {
                in_flight,
                queue_depth: 0,
            }
        }
        FederationError::AllSourcesFailed(EndpointError::Unreachable { reason }) => {
            ServerError::Unreachable { reason }
        }
        other => ServerError::Backend(other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_server_error_becomes_one_endpoint_error() {
        let reason = || "reset".to_string();
        for (error, expected) in [
            (
                ServerError::Overloaded {
                    in_flight: 7,
                    queue_depth: 3,
                },
                EndpointError::Overloaded { in_flight: 7 },
            ),
            (
                ServerError::QueueTimeout { waited_ms: 250 },
                EndpointError::Overloaded { in_flight: 0 },
            ),
            (
                ServerError::Timeout { work_used: 42 },
                EndpointError::Timeout { work_used: 42 },
            ),
            (
                ServerError::Unreachable { reason: reason() },
                EndpointError::Unreachable { reason: reason() },
            ),
            (
                ServerError::Backend("boom".into()),
                EndpointError::Eval("backend failure: boom".into()),
            ),
        ] {
            assert_eq!(EndpointError::from(error.clone()), expected, "{error:?}");
        }
    }
}

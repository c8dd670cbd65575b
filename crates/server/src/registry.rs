//! The sharded session registry: the one table of open sessions.
//!
//! A registry entry is the whole session — one [`OpenSession`] behind one
//! `Arc`, holding the server's [`SessionEntry`] and the evented front-end's
//! request queue side by side. [`SapphireServer::open_session`] creates it
//! and [`SapphireServer::close_session`] removes it, each once; the
//! front-end keeps no table of its own. It resolves a session here once per
//! submission, and from then on its ready queue, its turns and its
//! admission-grant callbacks carry the `Arc` itself — so a session closed
//! with requests still queued drains because its turn still holds it, and
//! is freed when the last of them lets go.
//!
//! Sessions hold only *state* — triple-box text, modifiers, the attempt
//! counter, and the last run's suggestions. The predictive model itself is
//! shared and immutable, so a million sessions cost a million small structs,
//! not a million model copies. The registry is sharded: lookups take one
//! shard's read lock briefly to clone an `Arc`, then operate on the
//! session's own mutexes, so traffic on different sessions never contends on
//! a global lock. Same-session requests take the entry mutex only to read or
//! commit state — never across the admission wait or model work — so a
//! queued run cannot stall other requests on its session; runs snapshot the
//! entry (with its [`generation`](SessionEntry::generation)) and commit
//! afterwards, skipping the suggestions commit if the snapshot was
//! superseded while they executed.
//!
//! [`SapphireServer::open_session`]: crate::SapphireServer::open_session
//! [`SapphireServer::close_session`]: crate::SapphireServer::close_session

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use sapphire_core::qsm::QsmOutput;
use sapphire_core::session::{Modifiers, TripleInput};

use crate::error::ServerError;
use crate::frontend::session::SessionState;

/// Opaque session handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Mutable state of one interactive session.
#[derive(Debug, Default)]
pub struct SessionEntry {
    /// Owning tenant (billing identity for budgets).
    pub tenant: String,
    /// Triple-pattern rows, as typed so far.
    pub triples: Vec<TripleInput>,
    /// Query modifiers.
    pub modifiers: Modifiers,
    /// Times "Run" was pressed.
    pub attempts: u32,
    /// Bumped on every edit of `triples`/`modifiers`. A run snapshots this
    /// with the rows it builds from and only commits its suggestions if the
    /// session is unchanged when it finishes — runs release the entry lock
    /// while executing, so a slow run must not overwrite the suggestions of
    /// a newer session state with ones derived from rows the user has since
    /// replaced.
    pub generation: u64,
    /// Suggestions from the most recent run, kept (shared, not copied) so a
    /// follow-up request can accept one ("did you mean") without re-deriving
    /// it.
    pub last_suggestions: Option<Arc<QsmOutput>>,
}

/// One open session: the server's state and the front-end's queue of not yet
/// executed requests, each under its own mutex, behind the one `Arc` the
/// registry holds until the session closes.
pub struct OpenSession {
    id: SessionId,
    /// The server's state of the session: its rows, modifiers, attempts and
    /// last suggestions.
    pub(crate) entry: Mutex<SessionEntry>,
    /// The evented front-end's state of the session: its request queue and
    /// phase tag.
    pub(crate) queue: Mutex<SessionState>,
}

impl OpenSession {
    /// The session's id.
    pub fn id(&self) -> SessionId {
        self.id
    }
}

impl std::fmt::Debug for OpenSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpenSession")
            .field("id", &self.id)
            .field("entry", &self.entry)
            .finish_non_exhaustive()
    }
}

/// Sharded map of [`SessionId`] → [`OpenSession`].
#[derive(Debug)]
pub struct SessionRegistry {
    shards: Vec<RwLock<HashMap<u64, Arc<OpenSession>>>>,
    next_id: AtomicU64,
    open: AtomicUsize,
    max_sessions: usize,
}

impl SessionRegistry {
    /// A registry with `shards` shards holding at most `max_sessions` total.
    pub fn new(shards: usize, max_sessions: usize) -> Self {
        let shards = shards.clamp(1, 1024);
        SessionRegistry {
            shards: (0..shards).map(|_| RwLock::new(HashMap::new())).collect(),
            next_id: AtomicU64::new(1),
            open: AtomicUsize::new(0),
            max_sessions: max_sessions.max(1),
        }
    }

    fn shard(&self, id: u64) -> &RwLock<HashMap<u64, Arc<OpenSession>>> {
        &self.shards[(id as usize) % self.shards.len()]
    }

    /// Open a session for `tenant`.
    pub fn open(&self, tenant: &str) -> Result<SessionId, ServerError> {
        // Optimistic reservation: bump, and roll back if over the cap.
        let open = self.open.fetch_add(1, Ordering::SeqCst) + 1;
        if open > self.max_sessions {
            self.open.fetch_sub(1, Ordering::SeqCst);
            return Err(ServerError::SessionLimit {
                open: open - 1,
                limit: self.max_sessions,
            });
        }
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let session = OpenSession {
            id: SessionId(id),
            entry: Mutex::new(SessionEntry {
                tenant: tenant.to_string(),
                triples: vec![TripleInput::default()],
                ..SessionEntry::default()
            }),
            queue: Mutex::new(SessionState::new()),
        };
        self.shard(id)
            .write()
            .unwrap()
            .insert(id, Arc::new(session));
        Ok(SessionId(id))
    }

    /// Fetch an open session.
    pub fn get(&self, id: SessionId) -> Result<Arc<OpenSession>, ServerError> {
        self.shard(id.0)
            .read()
            .unwrap()
            .get(&id.0)
            .cloned()
            .ok_or(ServerError::UnknownSession(id))
    }

    /// Close a session; returns true if it was open. Requests still queued
    /// on it at the front-end keep the session until they have drained, and
    /// each answers [`ServerError::UnknownSession`].
    pub fn close(&self, id: SessionId) -> bool {
        let removed = self.shard(id.0).write().unwrap().remove(&id.0).is_some();
        if removed {
            self.open.fetch_sub(1, Ordering::SeqCst);
        }
        removed
    }

    /// Number of open sessions.
    pub fn len(&self) -> usize {
        self.open.load(Ordering::SeqCst)
    }

    /// True if no sessions are open.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of shards (for observability).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_get_close_roundtrip() {
        let reg = SessionRegistry::new(4, 100);
        let id = reg.open("alice").unwrap();
        let session = reg.get(id).unwrap();
        assert_eq!(session.id(), id);
        assert_eq!(session.entry.lock().unwrap().tenant, "alice");
        assert_eq!(reg.len(), 1);
        assert!(reg.close(id));
        assert!(!reg.close(id), "double close is a no-op");
        assert!(matches!(reg.get(id), Err(ServerError::UnknownSession(_))));
        assert!(reg.is_empty());
    }

    #[test]
    fn session_ids_are_unique_across_threads() {
        let reg = Arc::new(SessionRegistry::new(8, 10_000));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let reg = reg.clone();
            handles.push(std::thread::spawn(move || {
                (0..100)
                    .map(|_| reg.open("t").unwrap().0)
                    .collect::<Vec<u64>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let total = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), total, "no id handed out twice");
        assert_eq!(reg.len(), total);
    }

    #[test]
    fn session_limit_is_typed_and_recoverable() {
        let reg = SessionRegistry::new(2, 2);
        let a = reg.open("t").unwrap();
        let _b = reg.open("t").unwrap();
        let err = reg.open("t").unwrap_err();
        assert!(matches!(
            err,
            ServerError::SessionLimit { open: 2, limit: 2 }
        ));
        reg.close(a);
        assert!(reg.open("t").is_ok(), "capacity frees on close");
    }
}

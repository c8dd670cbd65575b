//! The reactor: one ready queue of sessions, drained by turn tasks on the
//! shared executor.
//!
//! The reactor never executes anything — it is the queue that replaces "one
//! parked thread per waiting request" with "one queue entry per ready
//! session". An entry is the session itself (its registry `Arc`), so the
//! turn that pops it needs no lookup, and a session closed while it waits
//! here still gets its turn. Three kinds of event make a session ready:
//!
//! * a submission to an idle session,
//! * an admission grant callback (the non-blocking admission path), and
//! * an admission-deadline timer on the executor
//!   ([`Executor::spawn_at`](sapphire_core::exec::Executor::spawn_at): a
//!   queued ticket's deadline passed; the session is scheduled so a turn can
//!   settle it to `QueueTimeout`).
//!
//! Making a session ready also says whether to start a turn task: at most
//! `workers` of them are alive at once, and each drains the queue and ends
//! when it finds it empty. Nothing waits here except a draining shutdown.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::registry::OpenSession;

#[derive(Debug, Default)]
struct ReactorState {
    /// Sessions ready for a turn, in scheduling order. May contain spurious
    /// entries (a deadline timer races a grant); turns skip entries whose
    /// session is no longer in a runnable phase.
    ready: VecDeque<Arc<OpenSession>>,
    /// Sessions a turn is currently operating on.
    busy: usize,
    /// Sessions parked in `AwaitingGrant` (so shutdown drains them even
    /// when their ticket carries no deadline).
    parked: usize,
    /// Turn tasks alive on the executor, queued or running; at most
    /// `workers`.
    running: usize,
    /// High-water mark of `ready.len()` (observability).
    peak_ready: usize,
}

#[derive(Debug, Default)]
pub(crate) struct Reactor {
    state: Mutex<ReactorState>,
    /// The cap on `running`.
    workers: usize,
    /// Signalled when the last turn task ends during a shutdown.
    drained: Condvar,
    /// Intake is closed and the front-end is draining; `submit` reads it
    /// without the lock.
    shutdown: AtomicBool,
    /// `ready.len()`, republished under the lock at every push and pop, so
    /// `submit` can ask whether anybody is waiting for a turn without it.
    waiting: AtomicUsize,
}

impl Reactor {
    pub(crate) fn new(workers: usize) -> Self {
        Reactor {
            workers: workers.max(1),
            ..Self::default()
        }
    }

    /// Make `session` ready. Returns `true` when the caller must start a
    /// turn task: fewer than `workers` are alive, and this one is counted.
    pub(crate) fn schedule(&self, session: Arc<OpenSession>) -> bool {
        let mut state = self.state.lock().unwrap();
        state.ready.push_back(session);
        self.publish_waiting(&mut state);
        let start = state.running < self.workers;
        state.running += usize::from(start);
        start
    }

    /// `ready` changed: republish its length and track its high-water mark.
    fn publish_waiting(&self, state: &mut ReactorState) {
        state.peak_ready = state.peak_ready.max(state.ready.len());
        self.waiting.store(state.ready.len(), Ordering::Relaxed);
    }

    /// Whether some session is waiting for a turn right now. A hint: the
    /// answer can be stale by the time the caller acts on it.
    pub(crate) fn backlogged(&self) -> bool {
        self.waiting.load(Ordering::Relaxed) > 0
    }

    /// A session entered `AwaitingGrant` (keeps the drain honest for
    /// tickets without a deadline).
    pub(crate) fn note_parked(&self) {
        self.state.lock().unwrap().parked += 1;
    }

    /// A session left `AwaitingGrant` (grant claimed, expired, or settled).
    /// Only a turn calls this, and that turn's last, empty `pop` is what
    /// wakes a draining shutdown.
    pub(crate) fn note_unparked(&self) {
        self.state.lock().unwrap().parked -= 1;
    }

    /// A turn task's next session, or `None` — and the task is no longer
    /// counted in `running` — when the queue is empty. Both happen under one
    /// lock, so a session scheduled after this empty look starts a task of
    /// its own.
    pub(crate) fn pop(&self) -> Option<Arc<OpenSession>> {
        let mut state = self.state.lock().unwrap();
        let Some(session) = state.ready.pop_front() else {
            state.running -= 1;
            if self.is_shutdown() {
                self.drained.notify_all();
            }
            return None;
        };
        state.busy += 1;
        self.publish_waiting(&mut state);
        Some(session)
    }

    /// A turn finished operating on a session; `followup` re-schedules it
    /// (more queued work) in one lock take, for the same turn task to pop.
    pub(crate) fn done(&self, followup: Option<Arc<OpenSession>>) {
        let mut state = self.state.lock().unwrap();
        state.busy -= 1;
        if let Some(session) = followup {
            state.ready.push_back(session);
            self.publish_waiting(&mut state);
        }
    }

    /// Stop intake and wait until no turn task is alive and no session is
    /// parked: every accepted request has had its response.
    pub(crate) fn drain(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let mut state = self.state.lock().unwrap();
        while state.running + state.busy + state.parked + state.ready.len() > 0 {
            state = self.drained.wait(state).unwrap();
        }
    }

    pub(crate) fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// `(ready, parked, peak_ready)` snapshot.
    pub(crate) fn load(&self) -> (usize, usize, usize) {
        let state = self.state.lock().unwrap();
        (state.ready.len(), state.parked, state.peak_ready)
    }
}

//! The reactor: one ready queue of sessions, shared by all workers.
//!
//! The reactor never executes anything — it is the scheduling heart that
//! replaces "one parked thread per waiting request" with "one queue entry
//! per ready session". Three kinds of event make a session ready:
//!
//! * a submission to an idle session,
//! * an admission grant callback (the non-blocking admission path), and
//! * the deadline sweep (a queued admission ticket's deadline passed; the
//!   session is scheduled so a worker can settle it to `QueueTimeout`).
//!
//! Workers block *here* — on one condvar, only when there is genuinely
//! nothing to do — never inside the admission controller.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

#[derive(Debug, Default)]
struct ReactorState {
    /// Sessions ready for a worker, in scheduling order. May contain
    /// spurious entries (a deadline sweep races a grant); workers skip
    /// entries whose session is no longer in a runnable phase.
    ready: VecDeque<u64>,
    /// `(deadline, session)` of parked admission tickets. Entries are
    /// one-shot hints, never removed early: a session whose grant arrived
    /// first just sees a spurious wake at its old deadline.
    deadlines: BinaryHeap<Reverse<(Instant, u64)>>,
    /// Sessions a worker is currently operating on.
    busy: usize,
    /// Sessions parked in `AwaitingGrant` (so shutdown drains them even
    /// when their ticket carries no deadline).
    parked: usize,
    /// High-water mark of `ready.len()` (observability).
    peak_ready: usize,
}

/// What a worker should do next.
pub(crate) enum Work {
    /// Operate on this session.
    Session(u64),
    /// Drain complete: exit the worker loop.
    Exit,
}

#[derive(Debug, Default)]
pub(crate) struct Reactor {
    state: Mutex<ReactorState>,
    wake: Condvar,
    /// Intake is closed and the pool is draining. Written only under
    /// `state`'s lock, so the workers' exit test — which reads it under that
    /// lock — is ordered with the queues it also inspects; `submit` reads it
    /// without the lock.
    shutdown: AtomicBool,
    /// `ready.len()`, republished under the lock at every push and pop, so
    /// `submit` can ask whether anybody is waiting for a worker without it.
    waiting: AtomicUsize,
}

impl Reactor {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Make `session` ready and wake one worker.
    pub(crate) fn schedule(&self, session: u64) {
        let mut state = self.state.lock().unwrap();
        state.ready.push_back(session);
        self.publish_waiting(&mut state);
        self.wake.notify_one();
    }

    /// `ready` changed: republish its length and track its high-water mark.
    fn publish_waiting(&self, state: &mut ReactorState) {
        state.peak_ready = state.peak_ready.max(state.ready.len());
        self.waiting.store(state.ready.len(), Ordering::Relaxed);
    }

    /// Whether some session is waiting for a worker right now. A hint: the
    /// answer can be stale by the time the caller acts on it.
    pub(crate) fn backlogged(&self) -> bool {
        self.waiting.load(Ordering::Relaxed) > 0
    }

    /// Register an admission-deadline wake-up for `session`. Uses
    /// `notify_all` because a sleeping worker may need to *shorten* its
    /// current timed wait to honor the new, earlier deadline.
    pub(crate) fn schedule_deadline(&self, at: Instant, session: u64) {
        let mut state = self.state.lock().unwrap();
        state.deadlines.push(Reverse((at, session)));
        drop(state);
        self.wake.notify_all();
    }

    /// A session entered `AwaitingGrant` (keeps the drain honest for
    /// tickets without a deadline).
    pub(crate) fn note_parked(&self) {
        self.state.lock().unwrap().parked += 1;
    }

    /// A session left `AwaitingGrant` (grant claimed, expired, or settled).
    pub(crate) fn note_unparked(&self) {
        let mut state = self.state.lock().unwrap();
        state.parked -= 1;
        if self.shutdown.load(Ordering::SeqCst) {
            drop(state);
            self.wake.notify_all();
        }
    }

    /// Blocking worker entry: the next ready session, or `Exit` once the
    /// front-end is shutting down *and* fully drained. Due deadline entries
    /// are folded into the ready queue here, so no dedicated timer thread
    /// exists — the workers are the timer.
    pub(crate) fn next(&self) -> Work {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(id) = state.ready.pop_front() {
                state.busy += 1;
                self.publish_waiting(&mut state);
                return Work::Session(id);
            }
            let now = Instant::now();
            let mut woke_any = false;
            while let Some(&Reverse((at, id))) = state.deadlines.peek() {
                if at > now {
                    break;
                }
                state.deadlines.pop();
                state.ready.push_back(id);
                woke_any = true;
            }
            if woke_any {
                continue;
            }
            let shutdown = self.shutdown.load(Ordering::SeqCst);
            if shutdown && state.busy == 0 && state.parked == 0 && state.ready.is_empty() {
                // Everything drained; wake the rest of the pool so every
                // worker observes the exit condition.
                self.wake.notify_all();
                return Work::Exit;
            }
            state = match state.deadlines.peek() {
                Some(&Reverse((at, _))) => {
                    let wait = at.saturating_duration_since(now);
                    self.wake.wait_timeout(state, wait).unwrap().0
                }
                None => self.wake.wait(state).unwrap(),
            };
        }
    }

    /// A worker finished operating on a session; `followup` re-schedules it
    /// (more queued work) in one lock take.
    pub(crate) fn done(&self, followup: Option<u64>) {
        let mut state = self.state.lock().unwrap();
        state.busy -= 1;
        match followup {
            Some(id) => {
                state.ready.push_back(id);
                self.publish_waiting(&mut state);
                self.wake.notify_one();
            }
            None => {
                if self.shutdown.load(Ordering::SeqCst) && state.busy == 0 {
                    drop(state);
                    self.wake.notify_all();
                }
            }
        }
    }

    /// Stop intake and let the pool drain.
    pub(crate) fn begin_shutdown(&self) {
        let state = self.state.lock().unwrap();
        self.shutdown.store(true, Ordering::SeqCst);
        drop(state);
        self.wake.notify_all();
    }

    pub(crate) fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// `(ready, parked, busy)` snapshot.
    pub(crate) fn load(&self) -> (usize, usize, usize) {
        let state = self.state.lock().unwrap();
        (state.ready.len(), state.parked, state.busy)
    }

    pub(crate) fn peak_ready(&self) -> usize {
        self.state.lock().unwrap().peak_ready
    }
}

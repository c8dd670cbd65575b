//! A shared, bounded, work-stealing task executor.
//!
//! Every hot path in the serving stack used to pay OS thread creation per
//! request: cluster scatter spawned one scoped thread per shard, hedging
//! spawned a detached thread per hedge, and large residual-bin scans spawned
//! `P` scoped threads. This module replaces all of those spawns with task
//! submission onto a fixed pool of worker threads (created once, at warm-up),
//! so steady-state serving creates zero threads.
//!
//! Design, in the spirit of the rest of the workspace (dep-free, `std` only):
//!
//! - **Fixed workers, per-worker deques.** `Executor::new(workers)` starts
//!   `workers` threads. Submission round-robins tasks across per-worker
//!   deques; an idle worker first drains its own deque, then steals from
//!   siblings (`steals` counter), then parks on its own condvar. A
//!   submission wakes nobody while some worker is between tasks — that one
//!   will find it — and otherwise the worker that parked last, so light
//!   load stays on the fewest threads (their stacks and allocator arenas
//!   already warm) and resident memory does not grow with the pool size.
//! - **Claimable tasks.** A task's job lives in a `Mutex<Option<Job>>`. Any
//!   holder of the task can *claim* the job back if no worker has started it
//!   (`TaskHandle::run_now`). This is the no-deadlock guarantee: a caller
//!   waiting on its own tasks can always execute them itself, so a saturated
//!   pool degrades to serial execution instead of a hang.
//! - **Caller-help batches.** [`Executor::run`] is `n` ordinary tasks, each
//!   holding an `Arc` of one `'static` index-closure and a sender of one
//!   channel; the calling thread claims-and-runs whatever the workers have
//!   not picked up yet, then drains the channel until every task has sent.
//!   Results are placed in task-index order, which is what keeps scatter
//!   merges and Algorithm-1 bin scans byte-identical to the old
//!   spawn-per-request code. A batch's inputs are owned or `Arc`-shared, so
//!   the type system, not a blocking call, keeps them alive.
//! - **Timers.** [`Executor::spawn_at`] holds a job in one map keyed by
//!   instant, under the park lock, until that instant. A worker that finds
//!   no task queues every due timer, then parks no longer than until the
//!   earliest pending one — the idle workers are the clock, and a saturated
//!   pool runs a due timer as soon as some worker looks for work.
//! - **Queue-wait visibility.** The executor keeps a
//!   [`sapphire_obs::Histogram`] of enqueue→start latency (`queue_p99_us` in
//!   [`ExecStats`]) and feeds each sample to an installed observer, which is
//!   how a tier folds it into its own `Obs`'s `exec_queue` stage — the pool
//!   is process-global, an `Obs` is per tier.
//!
//! The process-global instance ([`global`]) is sized from
//! `SAPPHIRE_EXEC_WORKERS` (or `max(8, available_parallelism)` — generous,
//! because shard calls block on the wire) and is shared by the router, the
//! bin scanner, the wire server's pipelined dispatch, and the evented
//! front-end's turns and admission-deadline timers.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use sapphire_obs::Histogram;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A submitted unit of work. The job can be executed by exactly one party:
/// a worker that pops the task, or a caller that claims it back.
struct Task {
    job: Mutex<Option<Job>>,
    enqueued: Instant,
}

/// Handle to a detached task submitted with [`Executor::spawn`] /
/// [`Executor::try_spawn`].
///
/// Dropping the handle does *not* cancel the task; tasks own (`Arc`) all the
/// data they touch, so it is always safe to walk away from one.
pub struct TaskHandle {
    task: Arc<Task>,
    exec: Arc<Inner>,
}

impl TaskHandle {
    /// Claim the job and run it on the current thread if no worker has
    /// started it yet. Returns `true` if this call executed the job.
    ///
    /// This is the progress guarantee for callers blocked on a task's side
    /// effect (e.g. a hedged shard call sending on a channel): when the pool
    /// is saturated, run the work inline instead of waiting forever.
    pub fn run_now(&self) -> bool {
        self.exec.run_inline(&self.task)
    }

    /// `true` once some thread has taken the job (it is running or done).
    pub fn started(&self) -> bool {
        self.task.job.lock().expect("exec task lock").is_none()
    }
}

/// Parked-worker bookkeeping, guarded by `Inner::park`.
struct Park {
    /// Parked workers, the most recently parked last.
    idle: Vec<usize>,
    shutdown: bool,
    /// Pending [`Executor::spawn_at`] jobs by instant, earliest first.
    timers: BTreeMap<Instant, Vec<Job>>,
}

type WaitObserver = Box<dyn Fn(u64) + Send + Sync>;

struct Inner {
    queues: Vec<Mutex<VecDeque<Arc<Task>>>>,
    rr: AtomicUsize,
    /// Tasks sitting in queues (may briefly over-count claimed-back tasks,
    /// which workers discard as empty shells).
    pending: AtomicUsize,
    /// Workers between tasks, looking for the next one; a submission wakes
    /// a parked worker only when this is zero.
    searching: AtomicUsize,
    park: Mutex<Park>,
    /// One condvar per worker, each used with `park`.
    wake: Vec<Condvar>,
    tasks_run: AtomicU64,
    inline_runs: AtomicU64,
    steals: AtomicU64,
    spawns_avoided: AtomicU64,
    panicked: AtomicU64,
    queue_wait: Histogram,
    wait_observer: OnceLock<WaitObserver>,
}

impl Inner {
    /// Count `job` as a spawn avoided and put it on a deque. Wakes nobody:
    /// the caller does, or is a worker queueing due timers and about to look
    /// for work itself.
    fn push(&self, job: Job) -> Arc<Task> {
        let task = Arc::new(Task {
            job: Mutex::new(Some(job)),
            enqueued: Instant::now(),
        });
        self.spawns_avoided.fetch_add(1, Ordering::Relaxed);
        let q = self.rr.fetch_add(1, Ordering::Relaxed) % self.queues.len();
        self.queues[q]
            .lock()
            .expect("exec queue lock")
            .push_back(Arc::clone(&task));
        self.pending.fetch_add(1, Ordering::SeqCst);
        task
    }

    /// `push` and make sure some worker will look: a searching one will
    /// (`pending` rises before `searching` is read, and a worker stops
    /// searching before it reads `pending`), else wake the last parked.
    fn submit(&self, job: Job) -> Arc<Task> {
        let task = self.push(job);
        if self.searching.load(Ordering::SeqCst) == 0 {
            self.wake(&mut self.park.lock().expect("exec park lock"), 1);
        }
        task
    }

    /// Wake up to `n` parked workers, the last parked first. Each counts as
    /// searching from here, so submissions made before it runs wake nobody
    /// else.
    fn wake(&self, park: &mut Park, n: usize) {
        let keep = park.idle.len().saturating_sub(n);
        for worker in park.idle.drain(keep..) {
            self.searching.fetch_add(1, Ordering::SeqCst);
            self.wake[worker].notify_one();
        }
    }

    fn find_task(&self, home: usize) -> Option<(Arc<Task>, bool)> {
        // Nothing queued: skip the deque locks. A push not yet counted is
        // caught by the re-check under the park lock.
        if self.pending.load(Ordering::SeqCst) == 0 {
            return None;
        }
        if let Some(t) = self.queues[home]
            .lock()
            .expect("exec queue lock")
            .pop_front()
        {
            self.pending.fetch_sub(1, Ordering::SeqCst);
            return Some((t, false));
        }
        let n = self.queues.len();
        for off in 1..n {
            let i = (home + off) % n;
            if let Some(t) = self.queues[i].lock().expect("exec queue lock").pop_front() {
                self.pending.fetch_sub(1, Ordering::SeqCst);
                return Some((t, true));
            }
        }
        None
    }

    /// Record queue-wait + run counters for a job about to execute.
    fn note_start(&self, task: &Task, inline: bool) {
        let us = task.enqueued.elapsed().as_micros() as u64;
        self.queue_wait.record(us);
        if let Some(obs) = self.wait_observer.get() {
            obs(us);
        }
        if inline {
            self.inline_runs.fetch_add(1, Ordering::Relaxed);
        } else {
            self.tasks_run.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Claim `task`'s job back and run it on this thread if no worker has
    /// started it; returns whether this call ran it.
    fn run_inline(&self, task: &Task) -> bool {
        let Some(job) = task.job.lock().expect("exec task lock").take() else {
            return false;
        };
        self.note_start(task, true);
        self.execute_job(job);
        true
    }

    /// Run a job, catching panics so a panicking detached task cannot kill a
    /// pool worker. Batch jobs catch their own panics and re-throw them on
    /// the submitting thread, so this outer net only sees detached tasks.
    fn execute_job(&self, job: Job) {
        if catch_unwind(AssertUnwindSafe(job)).is_err() {
            self.panicked.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn worker_loop(self: Arc<Self>, idx: usize) {
        self.searching.fetch_add(1, Ordering::SeqCst);
        loop {
            if let Some((task, stolen)) = self.find_task(idx) {
                // The last searcher to find work wakes a sibling for whatever
                // was submitted while it searched.
                if self.searching.fetch_sub(1, Ordering::SeqCst) == 1
                    && self.pending.load(Ordering::SeqCst) > 0
                {
                    self.wake(&mut self.park.lock().expect("exec park lock"), 1);
                }
                let job = task.job.lock().expect("exec task lock").take();
                if let Some(job) = job {
                    if stolen {
                        self.steals.fetch_add(1, Ordering::Relaxed);
                    }
                    self.note_start(&task, false);
                    self.execute_job(job);
                }
                self.searching.fetch_add(1, Ordering::SeqCst);
                continue;
            }
            let mut park = self.park.lock().expect("exec park lock");
            if park.shutdown {
                return;
            }
            // Queue every timer whose instant has passed.
            let later = park.timers.split_off(&Instant::now());
            for job in std::mem::replace(&mut park.timers, later)
                .into_values()
                .flatten()
            {
                self.push(job);
            }
            self.searching.fetch_sub(1, Ordering::SeqCst);
            if self.pending.load(Ordering::SeqCst) > 0 {
                // A task landed between our scan and the lock, or was left
                // to this worker by a submitter that saw it searching.
                self.searching.fetch_add(1, Ordering::SeqCst);
                continue;
            }
            park.idle.push(idx);
            // Sleep until the earliest timer; with none, `Duration::MAX` is
            // an untimed wait.
            let wait = (park.timers.keys().next()).map_or(Duration::MAX, |at| {
                at.saturating_duration_since(Instant::now())
            });
            let (mut park, _) = self.wake[idx]
                .wait_timeout(park, wait)
                .expect("exec park lock");
            // A waker took this worker off the list and counted it
            // searching; a timeout did neither.
            if let Some(at) = park.idle.iter().position(|&worker| worker == idx) {
                park.idle.remove(at);
                self.searching.fetch_add(1, Ordering::SeqCst);
            }
            if park.shutdown {
                return;
            }
        }
    }
}

/// Point-in-time executor counters, reported by benches and gated by
/// `serve_check`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecStats {
    /// Fixed worker-thread count.
    pub workers: usize,
    /// Jobs executed by pool workers.
    pub tasks_run: u64,
    /// Jobs executed inline by submitters (caller-help / `run_now`).
    pub inline_runs: u64,
    /// Jobs a worker took from a sibling's deque.
    pub steals: u64,
    /// Total jobs submitted — each one a thread spawn the old code paid.
    pub spawns_avoided: u64,
    /// Detached jobs that panicked (batch panics re-throw at the submitter).
    pub panicked: u64,
    /// Enqueue→start latency, p50 (log-bucket upper bound clamped to the
    /// largest observed, µs).
    pub queue_p50_us: u64,
    /// Enqueue→start latency, p95.
    pub queue_p95_us: u64,
    /// Enqueue→start latency, p99.
    pub queue_p99_us: u64,
    /// Largest observed enqueue→start latency.
    pub queue_max_us: u64,
}

/// A fixed pool of worker threads executing claimable tasks.
///
/// See the module docs for the design; most code wants [`global`] rather
/// than a private pool.
pub struct Executor {
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Executor {
    /// Start a pool with `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let inner = Arc::new(Inner {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            rr: AtomicUsize::new(0),
            pending: AtomicUsize::new(0),
            searching: AtomicUsize::new(0),
            park: Mutex::new(Park {
                idle: Vec::with_capacity(workers),
                shutdown: false,
                timers: BTreeMap::new(),
            }),
            wake: (0..workers).map(|_| Condvar::new()).collect(),
            tasks_run: AtomicU64::new(0),
            inline_runs: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            spawns_avoided: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
            queue_wait: Histogram::new(),
            wait_observer: OnceLock::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("sapphire-exec-{i}"))
                    .spawn(move || inner.worker_loop(i))
                    .expect("spawn executor worker")
            })
            .collect();
        Executor {
            inner,
            workers: handles,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Run `n` tasks — `f(0)..f(n-1)` — to completion and return their
    /// results **in index order**.
    ///
    /// All `n` tasks are submitted to the pool, then the calling thread
    /// claims-and-runs any the workers have not started (caller-help), so
    /// the batch completes even with zero free workers: the degenerate case
    /// is plain serial execution on the caller, never a deadlock. A panic in
    /// any task is re-thrown here after the whole batch has finished.
    ///
    /// Each task holds an `Arc` of `f` and a sender of one channel, and
    /// drops its `Arc` before it sends: the channel disconnects once every
    /// task has run, and by then nothing `f` captured is held by the pool.
    pub fn run<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(usize) -> T + Send + Sync + 'static,
    {
        if n == 0 {
            return Vec::new();
        }
        if n == 1 {
            return vec![f(0)];
        }
        let f = Arc::new(f);
        let (tx, rx) = mpsc::channel();
        let tasks: Vec<Arc<Task>> = (0..n)
            .map(|i| {
                let (f, tx) = (Arc::clone(&f), tx.clone());
                self.inner.push(Box::new(move || {
                    let out = catch_unwind(AssertUnwindSafe(|| f(i)));
                    drop(f);
                    let _ = tx.send((i, out));
                }))
            })
            .collect();
        drop((f, tx));
        // A batch is fan-out — shard calls that block on the wire, scan
        // slices — so it wakes a worker per task, searchers or not.
        self.inner
            .wake(&mut self.inner.park.lock().expect("exec park lock"), n);
        // Caller-help: execute whatever the workers have not picked up.
        for task in tasks.iter().rev() {
            self.inner.run_inline(task);
        }
        let mut outs: Vec<(usize, std::thread::Result<T>)> = rx.iter().collect();
        outs.sort_unstable_by_key(|&(i, _)| i);
        outs.into_iter()
            .map(|(_, out)| out.unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    }

    /// Submit a detached task. It runs on some worker eventually; use the
    /// returned handle's [`TaskHandle::run_now`] to force progress inline if
    /// the caller ends up blocked on the task's side effect.
    pub fn spawn<F>(&self, f: F) -> TaskHandle
    where
        F: FnOnce() + Send + 'static,
    {
        TaskHandle {
            task: self.inner.submit(Box::new(f)),
            exec: Arc::clone(&self.inner),
        }
    }

    /// Submit a detached task that no worker starts before `at`; an `at`
    /// already past is an ordinary [`spawn`](Self::spawn). It counts in
    /// `spawns_avoided` once it is queued. An idle worker runs it at `at`; a
    /// saturated pool, once some worker next looks for work. Dropping the
    /// executor discards timers that have not fired.
    pub fn spawn_at<F>(&self, at: Instant, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        if at <= Instant::now() {
            self.spawn(f);
            return;
        }
        let mut park = self.inner.park.lock().expect("exec park lock");
        let earliest = park.timers.keys().next().is_none_or(|&first| at < first);
        park.timers.entry(at).or_default().push(Box::new(f));
        // A new earliest timer re-parks every idle worker against it, so a
        // submission that then takes one of them leaves the rest watching.
        if earliest {
            self.inner.wake(&mut park, usize::MAX);
        }
    }

    /// Submit a detached task only if a worker is parked right now;
    /// otherwise hand the closure back. Used where queueing behind a
    /// saturated pool would be worse than running inline (e.g. the wire
    /// server's pipelined dispatch).
    pub fn try_spawn<F>(&self, f: F) -> Result<TaskHandle, F>
    where
        F: FnOnce() + Send + 'static,
    {
        {
            let park = self.inner.park.lock().expect("exec park lock");
            if park.idle.is_empty() {
                return Err(f);
            }
        }
        Ok(self.spawn(f))
    }

    /// Install the queue-wait observer (e.g. `obs.record(Stage::ExecQueue)`).
    /// First caller wins; returns `false` if one was already installed.
    pub fn set_queue_wait_observer<F>(&self, f: F) -> bool
    where
        F: Fn(u64) + Send + Sync + 'static,
    {
        self.inner.wait_observer.set(Box::new(f)).is_ok()
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> ExecStats {
        let i = &self.inner;
        let queue_wait = i.queue_wait.snapshot();
        ExecStats {
            workers: self.workers.len(),
            tasks_run: i.tasks_run.load(Ordering::Relaxed),
            inline_runs: i.inline_runs.load(Ordering::Relaxed),
            steals: i.steals.load(Ordering::Relaxed),
            spawns_avoided: i.spawns_avoided.load(Ordering::Relaxed),
            panicked: i.panicked.load(Ordering::Relaxed),
            queue_p50_us: queue_wait.percentile(50.0),
            queue_p95_us: queue_wait.percentile(95.0),
            queue_p99_us: queue_wait.percentile(99.0),
            queue_max_us: queue_wait.max,
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        {
            let mut park = self.inner.park.lock().expect("exec park lock");
            park.shutdown = true;
            park.timers.clear();
            self.inner.wake(&mut park, usize::MAX);
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Default pool size: generous relative to cores because tasks block on
/// wire I/O, not just CPU.
fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(8)
        .max(8)
}

static GLOBAL: OnceLock<Executor> = OnceLock::new();

/// The process-global executor shared by scatter, hedging, bin scans and
/// the wire server. Sized from `SAPPHIRE_EXEC_WORKERS` if set, else
/// `max(8, available_parallelism)`.
pub fn global() -> &'static Executor {
    GLOBAL.get_or_init(|| {
        let workers = std::env::var("SAPPHIRE_EXEC_WORKERS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(default_workers);
        Executor::new(workers)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn batch_results_come_back_in_index_order() {
        let exec = Executor::new(4);
        let out = exec.run(64, |i| i * 3);
        assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn batch_of_zero_and_one() {
        let exec = Executor::new(2);
        assert_eq!(exec.run(0, |i| i), Vec::<usize>::new());
        assert_eq!(exec.run(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn batch_completes_on_a_single_worker_pool_even_when_nested() {
        // One worker, nested run() from inside a task: caller-help must
        // serialize gracefully instead of deadlocking.
        let exec = Arc::new(Executor::new(1));
        let e2 = Arc::clone(&exec);
        let out = exec.run(4, move |i| {
            let inner: usize = e2.run(3, move |j| j + i).into_iter().sum();
            inner
        });
        assert_eq!(out, vec![3, 6, 9, 12]);
    }

    #[test]
    fn batch_panics_propagate_after_the_whole_batch_finishes() {
        let exec = Executor::new(2);
        let finished = Arc::new(AtomicU64::new(0));
        let f2 = Arc::clone(&finished);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            exec.run(8, move |i| {
                if i == 3 {
                    panic!("boom");
                }
                f2.fetch_add(1, Ordering::SeqCst);
            })
        }));
        assert!(result.is_err());
        assert_eq!(finished.load(Ordering::SeqCst), 7);
    }

    #[test]
    fn a_batch_run_by_the_workers_holds_nothing_once_it_returns() {
        let exec = Executor::new(4);
        let state = Arc::new(AtomicU64::new(0));
        let s2 = Arc::clone(&state);
        exec.run(16, move |_| s2.fetch_add(1, Ordering::SeqCst));
        assert_eq!(state.load(Ordering::SeqCst), 16);
        assert_eq!(Arc::strong_count(&state), 1);
    }

    #[test]
    fn a_batch_run_by_its_caller_holds_nothing_once_it_returns() {
        let exec = Executor::new(1);
        let (started_tx, started) = mpsc::channel();
        let (release, released) = mpsc::channel::<()>();
        let _slow = exec.spawn(move || {
            started_tx.send(()).unwrap();
            let _ = released.recv();
        });
        started.recv().unwrap(); // the only worker is inside the slow task
        let state = Arc::new(AtomicU64::new(0));
        let s2 = Arc::clone(&state);
        exec.run(16, move |_| s2.fetch_add(1, Ordering::SeqCst));
        assert_eq!(exec.stats().inline_runs, 16, "every task claimed back");
        assert_eq!(Arc::strong_count(&state), 1);
        drop(release);
    }

    #[test]
    fn spawned_task_runs_and_handle_reports_started() {
        let exec = Executor::new(2);
        let ran = Arc::new(AtomicBool::new(false));
        let r2 = Arc::clone(&ran);
        let handle = exec.spawn(move || r2.store(true, Ordering::SeqCst));
        let deadline = Instant::now() + Duration::from_secs(5);
        while !ran.load(Ordering::SeqCst) {
            assert!(Instant::now() < deadline, "spawned task never ran");
            std::thread::yield_now();
        }
        assert!(handle.started());
        assert!(!handle.run_now(), "job already consumed by a worker");
    }

    #[test]
    fn run_now_claims_an_unstarted_task_inline() {
        // Saturate the single worker with a slow task, then verify the
        // caller can reclaim a queued task and run it inline.
        let exec = Executor::new(1);
        let gate = Arc::new(AtomicBool::new(false));
        let g2 = Arc::clone(&gate);
        let _slow = exec.spawn(move || {
            while !g2.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        std::thread::sleep(Duration::from_millis(20)); // let the worker block
        let ran = Arc::new(AtomicBool::new(false));
        let r2 = Arc::clone(&ran);
        let queued = exec.spawn(move || r2.store(true, Ordering::SeqCst));
        assert!(queued.run_now(), "caller should claim the queued job");
        assert!(ran.load(Ordering::SeqCst));
        gate.store(true, Ordering::SeqCst);
    }

    #[test]
    fn try_spawn_refuses_when_no_worker_is_idle() {
        let exec = Executor::new(1);
        let gate = Arc::new(AtomicBool::new(false));
        let g2 = Arc::clone(&gate);
        let _slow = exec.spawn(move || {
            while !g2.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        std::thread::sleep(Duration::from_millis(20));
        let refused = exec.try_spawn(|| {}).is_err();
        assert!(
            refused,
            "pool is saturated; try_spawn must hand the job back"
        );
        gate.store(true, Ordering::SeqCst);
        // After the slow task drains, try_spawn succeeds again.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match exec.try_spawn(|| {}) {
                Ok(_) => break,
                Err(_) => assert!(Instant::now() < deadline, "worker never went idle"),
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn stats_count_submissions_and_runs() {
        let exec = Executor::new(2);
        let _ = exec.run(16, |i| i);
        let s = exec.stats();
        assert_eq!(s.workers, 2);
        assert!(s.spawns_avoided >= 16);
        assert_eq!(s.tasks_run + s.inline_runs, s.spawns_avoided);
        assert_eq!(s.panicked, 0);
    }

    #[test]
    fn queue_wait_observer_sees_every_start() {
        let exec = Executor::new(2);
        let seen = Arc::new(AtomicU64::new(0));
        let s2 = Arc::clone(&seen);
        assert!(exec.set_queue_wait_observer(move |_us| {
            s2.fetch_add(1, Ordering::SeqCst);
        }));
        assert!(!exec.set_queue_wait_observer(|_| {}), "first observer wins");
        let _ = exec.run(10, |i| i);
        assert_eq!(seen.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn histogram_percentiles_are_monotone() {
        let exec = Executor::new(2);
        let _ = exec.run(32, |i| i);
        let s = exec.stats();
        assert!(s.queue_p50_us <= s.queue_p95_us && s.queue_p95_us <= s.queue_p99_us);
        assert!(s.queue_p99_us <= s.queue_max_us);
    }

    /// Spin until `done` holds, failing after five seconds.
    fn wait_for(what: &str, done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !done() {
            assert!(Instant::now() < deadline, "{what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn a_timer_never_runs_before_its_instant() {
        let exec = Executor::new(2);
        let (tx, rx) = std::sync::mpsc::channel();
        let ats: Vec<Instant> = (0..4)
            .map(|i| Instant::now() + Duration::from_millis(10 + 15 * i))
            .collect();
        for &at in &ats {
            let tx = tx.clone();
            exec.spawn_at(at, move || tx.send((at, Instant::now())).unwrap());
        }
        for _ in &ats {
            let (at, ran) = rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert!(ran >= at, "ran {:?} early", at - ran);
        }
    }

    #[test]
    fn a_later_timer_with_an_earlier_instant_runs_first() {
        let exec = Executor::new(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        let now = Instant::now();
        for (name, after_ms) in [("late", 120), ("early", 40)] {
            let order = Arc::clone(&order);
            let at = now + Duration::from_millis(after_ms);
            exec.spawn_at(at, move || order.lock().unwrap().push(name));
        }
        wait_for("both timers fire", || order.lock().unwrap().len() == 2);
        assert_eq!(*order.lock().unwrap(), ["early", "late"]);
    }

    #[test]
    fn a_due_timer_runs_once_a_saturated_worker_frees() {
        let exec = Executor::new(1);
        let (started_tx, started) = std::sync::mpsc::channel();
        let (release, released) = std::sync::mpsc::channel::<()>();
        let _slow = exec.spawn(move || {
            started_tx.send(()).unwrap();
            let _ = released.recv();
        });
        started.recv().unwrap(); // the only worker is inside the slow task
        let fired = Arc::new(AtomicBool::new(false));
        let f2 = Arc::clone(&fired);
        let at = Instant::now() + Duration::from_millis(5);
        exec.spawn_at(at, move || f2.store(true, Ordering::SeqCst));
        std::thread::sleep(Duration::from_millis(30)); // `at` passes
        assert!(!fired.load(Ordering::SeqCst), "the only worker is busy");
        drop(release);
        wait_for("the timer fires once the worker frees", || {
            fired.load(Ordering::SeqCst)
        });
    }

    #[test]
    fn stats_balance_once_every_timer_has_fired() {
        let exec = Executor::new(2);
        let fired = Arc::new(AtomicU64::new(0));
        let now = Instant::now();
        // Two instants already past (queued at once), three to come.
        for ms in [0, 0, 5, 10, 20] {
            let f2 = Arc::clone(&fired);
            let at = now + Duration::from_millis(ms);
            exec.spawn_at(at, move || {
                f2.fetch_add(1, Ordering::SeqCst);
            });
        }
        let _ = exec.run(4, |i| i);
        wait_for("every timer fires", || fired.load(Ordering::SeqCst) == 5);
        let s = exec.stats();
        assert_eq!(s.spawns_avoided, 5 + 4);
        assert_eq!(s.tasks_run + s.inline_runs, s.spawns_avoided);
    }

    #[test]
    fn global_executor_is_shared_and_sized() {
        let g = global();
        assert!(g.workers() >= 1);
        let out = g.run(8, |i| i * i);
        assert_eq!(out, vec![0, 1, 4, 9, 16, 25, 36, 49]);
    }
}

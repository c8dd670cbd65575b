//! The `frontend_load` harness: thousands of open, mostly-idle sessions on
//! a few turns of the shared executor.
//!
//! `serve_load` measures the serving tier at full boil — every simulated
//! user is always either requesting or about to. The interactive workload
//! the paper describes is the opposite: sessions are *open* for minutes and
//! *active* for milliseconds, dominated by think time. A thread-per-request
//! tier pays one parked stack per waiting request; the evented
//! [`Frontend`] pays one queue entry. This
//! harness makes that difference a number:
//!
//! 1. **Think-time phase** — `sessions` (default 2,000) open sessions each
//!    replay the Appendix-B scripts one request at a time, with
//!    exponentially distributed think times (mean `think_ms`) between
//!    requests — a Poisson request process per session, seeded
//!    deterministically per session. The whole fleet runs on `workers`
//!    (default 8) front-end turns on the shared executor; the report
//!    carries the sampled process thread-count and RSS peaks so "no thread
//!    per session" is verifiable, and any rejection fails the CI gate.
//! 2. **Hot phase** — a subset of sessions turns think time off and drives
//!    closed-loop through the same front-end (each response immediately
//!    submits the next request), measuring the event loop's throughput
//!    ceiling.
//!
//! Standalone: `cargo run --release -p sapphire-bench --bin serve_load --
//! --frontend [--sessions 2000] [--workers 8] [--think 100] [--hold 1500]`.
//! `serve_load`'s default single-server run also embeds this phase as the
//! `frontend*` report sections (over the same shared model), which the
//! `serve_check` CI gate enforces.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, Weak};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sapphire_core::prelude::*;
use sapphire_core::{InitMode, PredictiveUserModel};
use sapphire_datagen::generate;
use sapphire_datagen::workload::{appendix_b, Question};
use sapphire_obs::MetricsHub;
use sapphire_server::frontend::{FrontRequest, FrontResponse};
use sapphire_server::{Frontend, FrontendConfig, SapphireServer, ServerConfig, ServerError};

use crate::serve::ClassStats;
use crate::{dataset_for, experiment_config};

/// Everything the front-end phase can be asked to do.
#[derive(Debug, Clone)]
pub struct FrontendPhaseOptions {
    /// Open sessions held through the think-time phase.
    pub sessions: usize,
    /// Front-end turns at once on the shared executor.
    pub workers: usize,
    /// Mean think time between one session's requests, in milliseconds.
    pub think_ms: u64,
    /// Think-time phase duration, in milliseconds.
    pub hold_ms: u64,
    /// Closed-loop sessions in the hot phase.
    pub hot_sessions: usize,
    /// Requests per closed-loop session in the hot phase.
    pub hot_rounds: usize,
    /// Admission queue deadline in milliseconds (`0` = 1000ms — relaxed
    /// like the CI gate's, so a scheduler stall cannot fake a rejection).
    pub queue_wait_ms: u64,
}

impl Default for FrontendPhaseOptions {
    fn default() -> Self {
        FrontendPhaseOptions {
            sessions: 2_000,
            workers: 8,
            think_ms: 100,
            hold_ms: 1_500,
            hot_sessions: 64,
            hot_rounds: 200,
            queue_wait_ms: 0,
        }
    }
}

// --- Process self-observation ----------------------------------------------

/// `(threads, vm_rss_kb)` from `/proc/self/status`; zeros when unavailable
/// (non-Linux) — the gate treats zero as "not measurable here".
fn proc_status() -> (u64, u64) {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return (0, 0);
    };
    let field = |name: &str| -> u64 {
        status
            .lines()
            .find(|l| l.starts_with(name))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    (field("Threads:"), field("VmRSS:"))
}

// --- Per-session scripted request stream ------------------------------------

enum Step {
    Keystroke,
    SetRow,
    Modifiers,
    Run,
}

/// Generates one session's Appendix-B request stream lazily (2,000
/// materialized scripts would be pure RSS noise in a harness whose gate is
/// an RSS budget).
struct ScriptCursor {
    questions: Arc<Vec<Question>>,
    offset: usize,
    question: usize,
    row: usize,
    typed: usize,
    step: Step,
}

impl ScriptCursor {
    fn new(questions: Arc<Vec<Question>>, offset: usize) -> Self {
        ScriptCursor {
            questions,
            offset,
            question: 0,
            row: 0,
            typed: 0,
            step: Step::Keystroke,
        }
    }

    fn next(&mut self) -> FrontRequest {
        let q = &self.questions[(self.question + self.offset) % self.questions.len()];
        match self.step {
            Step::Keystroke => {
                let input = &q.script.rows[self.row];
                let keyword = input.object.trim_start_matches('?');
                let len = keyword.chars().count().clamp(1, 6);
                self.typed += 1;
                let prefix: String = keyword.chars().take(self.typed).collect();
                if self.typed >= len {
                    self.step = Step::SetRow;
                }
                FrontRequest::Complete { typed: prefix }
            }
            Step::SetRow => {
                let input = q.script.rows[self.row].clone();
                let row = self.row;
                self.typed = 0;
                if self.row + 1 < q.script.rows.len() {
                    self.row += 1;
                    self.step = Step::Keystroke;
                } else {
                    self.step = Step::Modifiers;
                }
                FrontRequest::SetRow { idx: row, input }
            }
            Step::Modifiers => {
                let modifiers = q.script.modifiers();
                self.step = Step::Run;
                FrontRequest::SetModifiers { modifiers }
            }
            Step::Run => {
                self.question += 1;
                self.row = 0;
                self.typed = 0;
                self.step = Step::Keystroke;
                FrontRequest::Run
            }
        }
    }
}

/// Exponential think time with mean `mean_ms` (a Poisson request process
/// per session), deterministic per session seed.
fn think_time(rng: &mut StdRng, mean_ms: u64) -> Duration {
    let u: f64 = rng.gen::<f64>().min(1.0 - 1e-12);
    Duration::from_secs_f64((mean_ms as f64 / 1000.0) * -(1.0 - u).ln())
}

/// One completed request, reported back to the driver.
struct Done {
    session: usize,
    /// 0 = QCM, 1 = QSM, 2 = instant (row/modifier edits).
    class: u8,
    latency_us: u64,
    outcome: Result<(), ServerError>,
}

fn submit_scripted(
    fe: &Frontend,
    id: sapphire_server::SessionId,
    session: usize,
    cursor: &mut ScriptCursor,
    tx: &mpsc::Sender<Done>,
) {
    let request = cursor.next();
    let class = match &request {
        FrontRequest::Complete { .. } => 0,
        FrontRequest::Run => 1,
        _ => 2,
    };
    let tx = tx.clone();
    let t = Instant::now();
    fe.submit(
        id,
        request,
        Box::new(move |result| {
            // The driver holds the receiver for the whole phase; dropping a
            // response silently would stall the accounting into a visible
            // hang, so fail loudly instead.
            tx.send(Done {
                session,
                class,
                latency_us: t.elapsed().as_micros() as u64,
                outcome: result.map(|_| ()),
            })
            .expect("driver outlives responses");
        }),
    )
    .expect("think-time submissions are never rejected (backlog ≤ 1 per session)");
}

// --- Hot phase: closed-loop through callbacks --------------------------------

struct HotState {
    fe: Weak<Frontend>,
    id: sapphire_server::SessionId,
    session: usize,
    terms: Arc<Vec<String>>,
    remaining: AtomicUsize,
    latencies: Mutex<Vec<u64>>,
    errors: AtomicUsize,
    done: mpsc::Sender<usize>,
}

/// Submit this hot session's next request; each response re-enters here, so
/// the session drives itself closed-loop without any parked driver thread.
fn hot_next(state: &Arc<HotState>) {
    let Some(fe) = state.fe.upgrade() else {
        let _ = state.done.send(state.session);
        return;
    };
    let Ok(prev) = state
        .remaining
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
    else {
        let _ = state.done.send(state.session);
        return;
    };
    let term = state.terms[(state.session + prev) % state.terms.len()].clone();
    let t = Instant::now();
    let chain = state.clone();
    let _ = fe.submit(
        state.id,
        FrontRequest::Complete { typed: term },
        Box::new(move |result| {
            match result {
                Ok(_) => chain
                    .latencies
                    .lock()
                    .unwrap()
                    .push(t.elapsed().as_micros() as u64),
                Err(_) => {
                    chain.errors.fetch_add(1, Ordering::SeqCst);
                }
            }
            hot_next(&chain);
        }),
    );
}

// --- The phase itself -------------------------------------------------------

/// Run the front-end phase over an already-initialized shared model and
/// return its report: the front-end's own
/// [`export_metrics`](Frontend::export_metrics) (its server, caches, stages
/// and `frontend` counters) with the harness's measurements added to
/// `frontend` and the per-class stats in `frontend_qcm`/`frontend_qsm`.
/// `obs` aggregates this phase's stage histograms and traces into a
/// caller-shared handle (`None` gives the phase its own).
pub fn phase(
    pum: Arc<PredictiveUserModel>,
    opts: &FrontendPhaseOptions,
    obs: Option<Arc<sapphire_obs::Obs>>,
) -> MetricsHub {
    let queue_wait_ms = if opts.queue_wait_ms > 0 {
        opts.queue_wait_ms
    } else {
        1_000
    };
    let workers = opts.workers.max(1);
    let server_config = ServerConfig {
        // The pool is the concurrency: at most one admitted call per
        // worker, so `max_in_flight == workers` means evented admission
        // grants immediately and the *reactor* queue is where sessions
        // wait — the architecture under test.
        max_in_flight: workers,
        max_queue_depth: workers * 4,
        queue_wait: Duration::from_millis(queue_wait_ms),
        max_sessions: opts.sessions + opts.hot_sessions + 16,
        ..ServerConfig::default()
    };
    let server = Arc::new(match obs {
        Some(obs) => SapphireServer::with_obs(pum, server_config, obs),
        None => SapphireServer::new(pum, server_config),
    });
    let fe = Arc::new(Frontend::new(
        server.clone(),
        FrontendConfig {
            workers,
            session_queue_depth: 64,
        },
    ));

    // Sampler: thread-count + RSS peaks over the whole phase, 5ms cadence.
    let sampler_stop = Arc::new(AtomicBool::new(false));
    let peaks = Arc::new((AtomicU64::new(0), AtomicU64::new(0)));
    let sampler = {
        let stop = sampler_stop.clone();
        let peaks = peaks.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let (threads, rss) = proc_status();
                peaks.0.fetch_max(threads, Ordering::Relaxed);
                peaks.1.fetch_max(rss, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(5));
            }
        })
    };

    // --- Think-time phase ------------------------------------------------
    eprintln!(
        "(frontend_load: {} sessions on {} workers, mean think {}ms, hold {}ms…)",
        opts.sessions, workers, opts.think_ms, opts.hold_ms
    );
    let ids: Vec<_> = (0..opts.sessions)
        .map(|i| {
            fe.open_session(&format!("fe-user-{i}"))
                .expect("session registry sized for the fleet")
        })
        .collect();
    let questions = Arc::new(appendix_b());
    let mut cursors: Vec<ScriptCursor> = (0..opts.sessions)
        .map(|i| ScriptCursor::new(questions.clone(), i))
        .collect();
    let mut rngs: Vec<StdRng> = (0..opts.sessions)
        .map(|i| StdRng::seed_from_u64(0xFE00 + i as u64))
        .collect();
    let (done_tx, done_rx) = mpsc::channel::<Done>();

    let started = Instant::now();
    let deadline = started + Duration::from_millis(opts.hold_ms);
    // Stagger first requests across one think interval so the fleet starts
    // as a Poisson process, not a thundering herd.
    let mut due: BinaryHeap<Reverse<(Instant, usize)>> = (0..opts.sessions)
        .map(|i| Reverse((started + think_time(&mut rngs[i], opts.think_ms), i)))
        .collect();
    let (mut qcm, mut qsm) = (ClassStats::default(), ClassStats::default());
    let mut instant_requests = 0u64;
    let mut instant_failures = 0u64;
    let mut outstanding = 0usize;
    loop {
        let now = Instant::now();
        let draining = now >= deadline;
        if draining {
            due.clear();
            if outstanding == 0 {
                break;
            }
        } else {
            while let Some(&Reverse((at, session))) = due.peek() {
                if at > now {
                    break;
                }
                due.pop();
                submit_scripted(&fe, ids[session], session, &mut cursors[session], &done_tx);
                outstanding += 1;
            }
        }
        let wait = due
            .peek()
            .map(|&Reverse((at, _))| at.saturating_duration_since(now))
            .unwrap_or(Duration::from_millis(5))
            .clamp(Duration::from_micros(100), Duration::from_millis(5));
        let first = match done_rx.recv_timeout(wait) {
            Ok(done) => Some(done),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                unreachable!("the driver holds a sender")
            }
        };
        for done in first.into_iter().chain(done_rx.try_iter()) {
            outstanding -= 1;
            match done.class {
                0 => qcm.record_outcome(done.latency_us, &done.outcome),
                1 => qsm.record_outcome(done.latency_us, &done.outcome),
                _ => {
                    instant_requests += 1;
                    instant_failures += u64::from(done.outcome.is_err());
                }
            }
            if Instant::now() < deadline {
                due.push(Reverse((
                    Instant::now() + think_time(&mut rngs[done.session], opts.think_ms),
                    done.session,
                )));
            }
        }
    }
    let think_wall = started.elapsed();
    let think_sampled = (qcm.latencies_us.len() + qsm.latencies_us.len()) as u64;
    let think_requests = think_sampled + instant_requests + qcm.rejected() + qsm.rejected();

    // --- Hot phase: closed loop through the same front-end ----------------
    eprintln!(
        "(frontend_load hot phase: {} closed-loop sessions x {} requests…)",
        opts.hot_sessions, opts.hot_rounds
    );
    let hot_terms: Arc<Vec<String>> = Arc::new(
        questions
            .iter()
            .take(8)
            .map(|q| {
                let keyword = q.script.rows[0].object.trim_start_matches('?');
                keyword.chars().take(4).collect()
            })
            .collect(),
    );
    // Steady-state thread accounting: the shared executor, which runs the
    // front-end's turns and timers, is warm by now — the think phase already
    // drove requests through the whole stack — so the hot loop must not
    // create a single thread. serve_check gates on these two samples
    // being equal.
    let (hot_threads_before, _) = proc_status();
    let inline_before_hot = fe.metrics().answered_inline;
    let (hot_tx, hot_rx) = mpsc::channel::<usize>();
    let hot_started = Instant::now();
    let hot_states: Vec<Arc<HotState>> = (0..opts.hot_sessions)
        .map(|i| {
            Arc::new(HotState {
                fe: Arc::downgrade(&fe),
                id: fe
                    .open_session(&format!("fe-hot-{i}"))
                    .expect("registry sized for the hot fleet"),
                session: i,
                terms: hot_terms.clone(),
                remaining: AtomicUsize::new(opts.hot_rounds),
                latencies: Mutex::new(Vec::new()),
                errors: AtomicUsize::new(0),
                done: hot_tx.clone(),
            })
        })
        .collect();
    for state in &hot_states {
        hot_next(state);
    }
    for _ in 0..opts.hot_sessions {
        hot_rx
            .recv_timeout(Duration::from_secs(120))
            .expect("hot sessions finish");
    }
    let hot_wall = hot_started.elapsed();
    let (hot_threads_after, _) = proc_status();
    // Every hot term was typed in the think phase, so the hot loop is all
    // cache hits: a chain's first request finds its session idle and — while
    // no session is waiting for a worker, which holds for the first chain at
    // least — is answered by the thread that submitted it (the rest re-enter
    // from a callback, behind their own turn, and are a worker's).
    let hot_answered_inline = fe.metrics().answered_inline - inline_before_hot;
    let mut hot_latencies: Vec<u64> = Vec::new();
    let mut hot_errors = 0u64;
    for state in &hot_states {
        hot_latencies.extend(state.latencies.lock().unwrap().iter().copied());
        hot_errors += state.errors.load(Ordering::SeqCst) as u64;
    }
    hot_latencies.sort_unstable();
    let hot_requests = hot_latencies.len() as u64;
    let hot_p50 = hot_latencies
        .get(hot_latencies.len() / 2)
        .copied()
        .unwrap_or(0);

    // --- Close everything, drain, and account -----------------------------
    let all_ids: Vec<_> = ids
        .iter()
        .copied()
        .chain(hot_states.iter().map(|s| s.id))
        .collect();
    let closed = Arc::new(AtomicUsize::new(0));
    for id in &all_ids {
        let closed = closed.clone();
        fe.submit(
            *id,
            FrontRequest::Close,
            Box::new(move |r| {
                assert!(matches!(r, Ok(FrontResponse::Closed)));
                closed.fetch_add(1, Ordering::SeqCst);
            }),
        )
        .expect("close submissions accepted");
    }
    let close_deadline = Instant::now() + Duration::from_secs(60);
    while closed.load(Ordering::SeqCst) < all_ids.len() {
        assert!(Instant::now() < close_deadline, "close phase drained");
        std::thread::sleep(Duration::from_millis(1));
    }
    let final_backlog = fe.backlog();
    drop(hot_states);
    // Every close has been answered, so the front-end's counters are final.
    let mut hub = fe.export_metrics();
    Arc::try_unwrap(fe)
        .unwrap_or_else(|_| panic!("all front-end handles released"))
        .shutdown();
    sampler_stop.store(true, Ordering::Relaxed);
    sampler.join().expect("sampler never panics");

    let server_metrics = server.metrics();
    qcm.fields(think_wall, hub.section("frontend_qcm"));
    qsm.fields(think_wall, hub.section("frontend_qsm"));
    hub.section("frontend")
        .field("sessions", opts.sessions)
        .field("workers", workers)
        .field("think_ms", opts.think_ms)
        .field("hold_seconds", think_wall.as_secs_f64())
        // Queue timeouts are NOT added separately: they arrive through the
        // same callbacks as every other outcome and are already inside the
        // class stats (think phase) and `hot_errors` (hot phase) — adding
        // the front-end's `queue_timeouts` on top would double-count each.
        .field(
            "rejected_total",
            qcm.rejected() + qsm.rejected() + instant_failures + hot_errors,
        )
        .field("think_requests", think_requests)
        .field(
            "think_throughput_rps",
            think_sampled as f64 / think_wall.as_secs_f64().max(1e-9),
        )
        .field("hot_sessions", opts.hot_sessions)
        .field("hot_requests", hot_requests)
        .field("hot_seconds", hot_wall.as_secs_f64())
        .field(
            "hot_throughput_rps",
            hot_requests as f64 / hot_wall.as_secs_f64().max(1e-9),
        )
        .field("hot_p50_us", hot_p50)
        .field("hot_answered_inline", hot_answered_inline)
        .field("hot_threads_before", hot_threads_before)
        .field("hot_threads_after", hot_threads_after)
        .field("threads_peak", peaks.0.load(Ordering::Relaxed))
        .field("rss_peak_kb", peaks.1.load(Ordering::Relaxed))
        .field("final_backlog", final_backlog)
        .field("sessions_leaked", server_metrics.open_sessions)
        // Offered vs counted (see `serve::run`'s ledger): the think phase's
        // scripted requests plus the hot phase's completions, against the
        // server's pre-gate counters.
        .field("offered_qcm", qcm.offered() + hot_requests + hot_errors)
        .field("offered_runs", qsm.offered())
        .field("counted_qcm", server_metrics.completion_requests)
        .field("counted_runs", server_metrics.run_requests);
    hub
}

/// Standalone `frontend_load` run: build the dataset and shared model, run
/// the phase, and return the full report.
pub fn run(opts: &FrontendPhaseOptions, scale: &str) -> MetricsHub {
    let dataset = dataset_for(scale);
    eprintln!("(generating dataset + initializing shared model…)");
    let graph = generate(dataset);
    let triple_count = graph.len();
    let ep: Arc<dyn Endpoint> = Arc::new(LocalEndpoint::new(
        "dbpedia",
        graph,
        EndpointLimits::warehouse(),
    ));
    let pum = Arc::new(
        PredictiveUserModel::initialize(
            vec![ep],
            Lexicon::dbpedia_default(),
            experiment_config(),
            InitMode::Federated,
        )
        .expect("initialization"),
    );
    let mut hub = phase(pum, opts, None);
    hub.section("summary").field("benchmark", "frontend_load");
    hub.section("config")
        .field("scale", scale)
        .field("triples", triple_count);
    hub
}

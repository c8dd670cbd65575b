//! The load loops: a closed loop of blocking clients and an open loop that
//! sends on a Poisson schedule whether or not earlier requests have
//! answered. Both go through the system's public front doors only —
//! `Frontend::call` / `Frontend::submit` on a single box,
//! `ClusterRouter::complete` / `run` at the cluster edge.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use sapphire_cluster::{ClusterCompletion, ClusterRouter, ClusterRun};
use sapphire_core::qcm::CompletionResult;
use sapphire_server::{FrontRequest, FrontResponse, Frontend, RunOutput, SessionId};

use crate::pool::{mix, Cycle, Request};

/// A measured request slower than this counts as failed, whatever it
/// answered. Not the 2 s first planned: the guard is for requests that never
/// come back in useful time (M4 relaxes for minutes), and in a slow stretch
/// of this host one `cluster_wire` Run in ten thousand — five sequential
/// shard round trips, 25 ms at p90 — took 3 s.
pub const SLOW_GUARD: Duration = Duration::from_secs(5);

/// One response in sixteen is kept for the oracle.
const SAMPLE_ONE_IN: u64 = 16;

/// A response of either front door.
#[derive(Debug)]
pub enum Response {
    Completion(CompletionResult),
    Run(RunOutput),
    EdgeCompletion(ClusterCompletion),
    EdgeRun(ClusterRun),
}

/// What a timed request asked.
#[derive(Debug)]
pub enum Asked {
    /// A `Complete` with this typed prefix.
    Prefix(String),
    /// The `Run` of this cycle (rows, modifiers, query).
    Run(Box<Cycle>),
}

impl Asked {
    fn of(request: &Request, cycles: &[Cycle]) -> Asked {
        match request {
            Request::Complete(typed) => Asked::Prefix(typed.clone()),
            Request::Run(cycle) => Asked::Run(Box::new(cycles[*cycle].clone())),
            _ => unreachable!("only timed requests are sampled"),
        }
    }
}

/// A response kept for the oracle, with what asked for it.
#[derive(Debug)]
pub struct Sample {
    pub asked: Asked,
    pub response: Response,
}

/// Which front door a closed loop drives.
pub enum Door<'a> {
    /// One session per client on the evented front-end.
    Frontend {
        frontend: &'a Frontend,
        sessions: &'a [SessionId],
    },
    /// Sessionless calls on the cluster edge, one router per client;
    /// `SetRow`/`SetModifiers` have no edge counterpart and are skipped (the
    /// cycle carries its query).
    Edge { routers: &'a [Arc<ClusterRouter>] },
}

fn front_request(request: &Request) -> FrontRequest {
    match request {
        Request::Complete(typed) => FrontRequest::Complete {
            typed: typed.clone(),
        },
        Request::SetRow(idx, input) => FrontRequest::SetRow {
            idx: *idx,
            input: input.clone(),
        },
        Request::SetModifiers(modifiers) => FrontRequest::SetModifiers {
            modifiers: modifiers.clone(),
        },
        Request::Run(_) => FrontRequest::Run,
    }
}

fn front_response(response: FrontResponse) -> Option<Response> {
    match response {
        FrontResponse::Completion(c) => Some(Response::Completion(c)),
        FrontResponse::Run(r) => Some(Response::Run(r)),
        _ => None,
    }
}

/// Per-client state that outlives a pass: which requests already have a
/// sample, so the oracle checks each distinct request once.
#[derive(Default)]
pub struct ClientMemory {
    sampled: HashSet<u64>,
}

fn request_key(request: &Request, cycles: &[Cycle]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    match request {
        Request::Complete(typed) => (0u8, typed).hash(&mut h),
        Request::Run(cycle) => {
            let c = &cycles[*cycle];
            1u8.hash(&mut h);
            for r in &c.rows {
                (&r.subject, &r.predicate, &r.object).hash(&mut h);
            }
            format!("{:?}", c.modifiers).hash(&mut h);
        }
        _ => {}
    }
    h.finish()
}

/// When and how long one timed request ran (traced passes only).
#[derive(Debug, Clone, Copy)]
pub struct RequestSpan {
    pub client: u32,
    pub is_run: bool,
    /// Nanoseconds from the start of the pass.
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// What one pass produced.
#[derive(Debug, Default)]
pub struct PassOutcome {
    pub wall: Duration,
    pub qcm_ns: Vec<f64>,
    pub qsm_ns: Vec<f64>,
    /// Timed requests sent.
    pub attempted: u64,
    /// Of those, rejected, errored, or slower than [`SLOW_GUARD`].
    pub failed: u64,
    pub samples: Vec<Sample>,
    /// Open loop only: how late the generator submitted, ns.
    pub late_ns: Vec<f64>,
    /// Traced passes only.
    pub spans: Vec<RequestSpan>,
}

struct ClientOutcome {
    qcm_ns: Vec<f64>,
    qsm_ns: Vec<f64>,
    failed: u64,
    samples: Vec<Sample>,
    spans: Vec<RequestSpan>,
}

/// One closed-loop pass: every client sends its stream, each request only
/// after the previous one answered. Clients start together; the pass ends
/// when the last one is done.
pub fn closed_pass(
    door: &Door<'_>,
    plan: &[Vec<Request>],
    cycles: &[Cycle],
    memories: &mut [ClientMemory],
    sample_seed: u64,
    traced: bool,
) -> PassOutcome {
    let barrier = Barrier::new(plan.len() + 1);
    let mut outcome = PassOutcome::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = plan
            .iter()
            .zip(memories.iter_mut())
            .enumerate()
            .map(|(client, (requests, memory))| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let origin = Instant::now();
                    run_client(
                        door,
                        client,
                        requests,
                        cycles,
                        memory,
                        sample_seed,
                        traced.then_some(origin),
                    )
                })
            })
            .collect();
        barrier.wait();
        let started = Instant::now();
        for handle in handles {
            let c = handle.join().expect("client threads never panic");
            outcome.attempted += (c.qcm_ns.len() + c.qsm_ns.len()) as u64;
            outcome.qcm_ns.extend(c.qcm_ns);
            outcome.qsm_ns.extend(c.qsm_ns);
            outcome.failed += c.failed;
            outcome.samples.extend(c.samples);
            outcome.spans.extend(c.spans);
        }
        outcome.wall = started.elapsed();
    });
    outcome
}

fn run_client(
    door: &Door<'_>,
    client: usize,
    requests: &[Request],
    cycles: &[Cycle],
    memory: &mut ClientMemory,
    sample_seed: u64,
    trace_origin: Option<Instant>,
) -> ClientOutcome {
    let mut out = ClientOutcome {
        qcm_ns: Vec::with_capacity(requests.len()),
        qsm_ns: Vec::with_capacity(requests.len() / 8),
        failed: 0,
        samples: Vec::new(),
        spans: Vec::new(),
    };
    let tenant = format!("client-{client}");
    for (idx, request) in requests.iter().enumerate() {
        let (elapsed, started, response) = match door {
            Door::Frontend { frontend, sessions } => {
                let front = front_request(request);
                let started = Instant::now();
                let result = frontend.call(sessions[client], front);
                (
                    started.elapsed(),
                    started,
                    result.map(front_response).map_err(|e| e.to_string()),
                )
            }
            Door::Edge { routers } => match request {
                Request::Complete(typed) => {
                    let started = Instant::now();
                    let result = routers[client].complete(&tenant, typed);
                    (
                        started.elapsed(),
                        started,
                        result
                            .map(|c| Some(Response::EdgeCompletion(c)))
                            .map_err(|e| e.to_string()),
                    )
                }
                Request::Run(cycle) => {
                    let query = cycles[*cycle]
                        .query
                        .as_ref()
                        .expect("edge cycles carry their query");
                    let started = Instant::now();
                    let result = routers[client].run(&tenant, query);
                    (
                        started.elapsed(),
                        started,
                        result
                            .map(|r| Some(Response::EdgeRun(r)))
                            .map_err(|e| e.to_string()),
                    )
                }
                _ => continue,
            },
        };
        if !request.is_timed() {
            if let Err(e) = response {
                eprintln!("client {client}: state edit failed: {e}");
                out.failed += 1;
            }
            continue;
        }
        let ns = elapsed.as_nanos() as f64;
        let is_run = matches!(request, Request::Run(_));
        if is_run {
            out.qsm_ns.push(ns);
        } else {
            out.qcm_ns.push(ns);
        }
        if let Some(origin) = trace_origin {
            out.spans.push(RequestSpan {
                client: client as u32,
                is_run,
                start_ns: started.duration_since(origin).as_nanos() as u64,
                dur_ns: elapsed.as_nanos() as u64,
            });
        }
        match response {
            Err(e) => {
                eprintln!("client {client}: request {idx} failed: {e}");
                out.failed += 1;
            }
            Ok(_) if elapsed > SLOW_GUARD => {
                eprintln!("client {client}: request {idx} took {elapsed:?}");
                out.failed += 1;
            }
            Ok(response) => {
                let pick = mix(sample_seed, ((client as u64) << 40) | idx as u64);
                if pick.is_multiple_of(SAMPLE_ONE_IN)
                    && memory.sampled.insert(request_key(request, cycles))
                {
                    if let Some(response) = response {
                        out.samples.push(Sample {
                            asked: Asked::of(request, cycles),
                            response,
                        });
                    }
                }
            }
        }
    }
    out
}

/// One open-loop pass: `streams[s]` is session `s`'s request stream;
/// arrival `k` is due at `due_ns[k]` and takes the next timed request of
/// the next session that still has one (with the state edits queued before
/// it). Latency counts from the due time, so a stall is charged to every
/// request it delayed; how late the generator itself ran is reported too.
pub fn open_pass(
    frontend: &Frontend,
    sessions: &[SessionId],
    streams: &[Vec<Request>],
    cycles: &[Cycle],
    due_ns: &[u64],
    memory: &mut ClientMemory,
    sample_seed: u64,
) -> PassOutcome {
    struct Shared {
        latency_ns: Vec<AtomicU64>,
        failed: AtomicU64,
        done: AtomicUsize,
        samples: Mutex<Vec<Sample>>,
    }
    let shared = Arc::new(Shared {
        latency_ns: (0..due_ns.len()).map(|_| AtomicU64::new(0)).collect(),
        failed: AtomicU64::new(0),
        done: AtomicUsize::new(0),
        samples: Mutex::new(Vec::new()),
    });
    let mut cursors = vec![0usize; streams.len()];
    let mut is_run = vec![false; due_ns.len()];
    let mut late_ns = Vec::with_capacity(due_ns.len());
    let mut session = 0usize;
    let mut submitted = 0usize;
    let started = Instant::now();
    for (k, &due) in due_ns.iter().enumerate() {
        // The next session (round-robin) with requests left.
        let Some(s) = (0..streams.len())
            .map(|step| (session + step) % streams.len())
            .find(|&s| cursors[s] < streams[s].len())
        else {
            break;
        };
        session = s + 1;
        let due_at = started + Duration::from_nanos(due);
        loop {
            let now = Instant::now();
            if now >= due_at {
                break;
            }
            let left = due_at - now;
            // Sleep through the long part of a gap, spin through the last
            // stretch: a sleeping generator overshoots by tens of µs, and
            // that would be charged to the system as latency.
            if left > Duration::from_micros(200) {
                std::thread::sleep(left - Duration::from_micros(150));
            } else {
                std::hint::spin_loop();
            }
        }
        // State edits ride along, unmeasured, ahead of their timed request.
        while !streams[s][cursors[s]].is_timed() {
            let edit = front_request(&streams[s][cursors[s]]);
            cursors[s] += 1;
            let shared = shared.clone();
            let _ = frontend.submit(
                sessions[s],
                edit,
                Box::new(move |result| {
                    if result.is_err() {
                        shared.failed.fetch_add(1, Ordering::Relaxed);
                    }
                }),
            );
        }
        let request = &streams[s][cursors[s]];
        cursors[s] += 1;
        is_run[k] = matches!(request, Request::Run(_));
        let keep = mix(sample_seed, k as u64).is_multiple_of(SAMPLE_ONE_IN)
            && memory.sampled.insert(request_key(request, cycles));
        let kept = keep.then(|| Asked::of(request, cycles));
        let shared_cb = shared.clone();
        late_ns.push(Instant::now().saturating_duration_since(due_at).as_nanos() as f64);
        let _ = frontend.submit(
            sessions[s],
            front_request(request),
            Box::new(move |result| {
                let latency = Instant::now().saturating_duration_since(due_at);
                shared_cb.latency_ns[k].store(latency.as_nanos().max(1) as u64, Ordering::Relaxed);
                match result {
                    Err(_) => {
                        shared_cb.failed.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(_) if latency > SLOW_GUARD => {
                        shared_cb.failed.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(response) => {
                        if let (Some(asked), Some(response)) = (kept, front_response(response)) {
                            shared_cb
                                .samples
                                .lock()
                                .expect("sample list")
                                .push(Sample { asked, response });
                        }
                    }
                }
                shared_cb.done.fetch_add(1, Ordering::Release);
            }),
        );
        submitted += 1;
    }
    // Drain: every submitted request answers (the front-end guarantees one
    // callback each); give up — and count the rest failed — after the guard.
    let drain_deadline = Instant::now() + SLOW_GUARD + SLOW_GUARD;
    while shared.done.load(Ordering::Acquire) < submitted && Instant::now() < drain_deadline {
        std::thread::sleep(Duration::from_micros(200));
    }
    let wall = started.elapsed();
    let mut outcome = PassOutcome {
        wall,
        attempted: submitted as u64,
        failed: shared.failed.load(Ordering::Relaxed),
        late_ns,
        ..PassOutcome::default()
    };
    for (latency, is_run) in shared.latency_ns.iter().zip(is_run).take(submitted) {
        match latency.load(Ordering::Relaxed) {
            0 => outcome.failed += 1,
            ns if is_run => outcome.qsm_ns.push(ns as f64),
            ns => outcome.qcm_ns.push(ns as f64),
        }
    }
    outcome.samples = std::mem::take(&mut *shared.samples.lock().expect("sample list"));
    outcome
}

/// A fixed stretch of integer arithmetic, timed: the same instructions
/// before every pass, so a slow reading says the *host* was slow.
pub fn reference_loop_ms() -> f64 {
    let started = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..1_000_000u64 {
        x = (x ^ (x >> 29))
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(i);
    }
    std::hint::black_box(x);
    started.elapsed().as_secs_f64() * 1e3
}

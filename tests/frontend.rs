//! Front-end-vs-oracle contracts: the evented tier (sessions multiplexed on
//! a few executor turns, non-blocking admission) must be *indistinguishable
//! in content* from the thread-per-request tier it replaces.
//!
//! The comparison contract: every session's response stream, rendered
//! canonically (timing fields and the run-to-run `cached` flag excluded —
//! they depend on scheduling, not on answers), must be byte-identical
//! between a `SapphireServer` driven directly and the same workload
//! submitted through a [`Frontend`] — per session, in submission order,
//! with submissions interleaved across sessions so the multiplexing is
//! real.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use sapphire_core::session::Modifiers;
use sapphire_core::{InitMode, PredictiveUserModel, SapphireConfig};
use sapphire_datagen::workload::appendix_b;
use sapphire_datagen::{generate, DatasetConfig};
use sapphire_endpoint::EndpointLimits;
use sapphire_server::frontend::{FrontRequest, FrontResponse};
use sapphire_server::{
    Frontend, FrontendConfig, SapphireServer, ServerConfig, ServerError, SessionId,
};
use sapphire_text::Lexicon;

fn pum() -> Arc<PredictiveUserModel> {
    Arc::new(
        PredictiveUserModel::initialize_local(
            "oracle",
            generate(DatasetConfig::tiny(42)),
            EndpointLimits::warehouse(),
            Lexicon::dbpedia_default(),
            SapphireConfig {
                processes: 2,
                ..SapphireConfig::default()
            },
            InitMode::Federated,
        )
        .unwrap(),
    )
}

/// A roomy serving posture: the oracle comparison must never shed load
/// (rejections are timing-dependent and would fail the byte comparison for
/// the wrong reason).
fn roomy_config() -> ServerConfig {
    ServerConfig {
        max_in_flight: 8,
        max_queue_depth: 1024,
        queue_wait: std::time::Duration::from_secs(30),
        ..ServerConfig::for_tests()
    }
}

/// The per-session request script: the Appendix-B workload exactly as
/// `serve_load` types it — per-keystroke completions, row edits, modifiers,
/// a run per question, and an accept attempt after each run.
fn session_script(offset: usize) -> Vec<FrontRequest> {
    let questions = appendix_b();
    let mut script = Vec::new();
    for qi in 0..questions.len() {
        let q = &questions[(qi + offset) % questions.len()];
        for (row, input) in q.script.rows.iter().enumerate() {
            let keyword = input.object.trim_start_matches('?');
            for end in 1..=keyword.chars().count().min(4) {
                script.push(FrontRequest::Complete {
                    typed: keyword.chars().take(end).collect(),
                });
            }
            script.push(FrontRequest::SetRow {
                idx: row,
                input: input.clone(),
            });
        }
        script.push(FrontRequest::SetModifiers {
            modifiers: Modifiers {
                distinct: false,
                order_by: q.script.order_by.clone(),
                limit: q.script.limit,
                count: q.script.count,
                filters: q.script.filters.clone(),
            },
        });
        script.push(FrontRequest::Run);
        // Accept the top "did you mean" when one exists; the typed
        // `UnknownSuggestion` answer when none does is part of the
        // transcript too.
        script.push(FrontRequest::ApplyAlternative { index: 0 });
    }
    script
}

/// Canonical rendering: everything answer-determined, nothing
/// timing-determined.
fn render(result: &Result<FrontResponse, ServerError>) -> String {
    match result {
        Ok(FrontResponse::Completion(c)) => format!(
            "C|{:?}|{}|{}",
            c.suggestions, c.tree_hit, c.residual_candidates
        ),
        Ok(FrontResponse::Run(out)) => format!(
            "R|{:?}|{:?}|{:?}|{}|{}",
            out.answers,
            out.suggestions.alternatives,
            out.suggestions.relaxations,
            out.executed,
            out.attempts
        ),
        Ok(FrontResponse::Table(t)) => format!("T|{t:?}"),
        Ok(FrontResponse::Query(q)) => format!("Q|{q:?}"),
        Ok(FrontResponse::Ack) => "A".to_string(),
        Ok(FrontResponse::Closed) => "X".to_string(),
        Err(e) => format!("E|{e}"),
    }
}

/// Drive one session's script through the thread-per-request surface.
fn oracle_transcript(
    server: &SapphireServer,
    tenant: &str,
    script: &[FrontRequest],
) -> Vec<String> {
    let id = server.open_session(tenant).unwrap();
    let mut transcript = Vec::new();
    for request in script {
        let rendered = match request {
            FrontRequest::Complete { typed } => {
                render(&server.complete(id, typed).map(FrontResponse::Completion))
            }
            FrontRequest::Run => render(&server.run(id).map(FrontResponse::Run)),
            FrontRequest::SetRow { idx, input } => render(
                &server
                    .set_row(id, *idx, input.clone())
                    .map(|()| FrontResponse::Ack),
            ),
            FrontRequest::SetModifiers { modifiers } => render(
                &server
                    .set_modifiers(id, modifiers.clone())
                    .map(|()| FrontResponse::Ack),
            ),
            FrontRequest::ApplyAlternative { index } => render(
                &server
                    .apply_alternative(id, *index)
                    .map(FrontResponse::Table),
            ),
            FrontRequest::Query { .. } | FrontRequest::Close => unreachable!("not scripted"),
        };
        transcript.push(rendered);
    }
    server.close_session(id);
    transcript
}

/// Clone a script request (FrontRequest is deliberately not `Clone`-derived
/// for callbacks' sake; the script variants all are).
fn clone_request(r: &FrontRequest) -> FrontRequest {
    match r {
        FrontRequest::Complete { typed } => FrontRequest::Complete {
            typed: typed.clone(),
        },
        FrontRequest::Run => FrontRequest::Run,
        FrontRequest::SetRow { idx, input } => FrontRequest::SetRow {
            idx: *idx,
            input: input.clone(),
        },
        FrontRequest::SetModifiers { modifiers } => FrontRequest::SetModifiers {
            modifiers: modifiers.clone(),
        },
        FrontRequest::ApplyAlternative { index } => {
            FrontRequest::ApplyAlternative { index: *index }
        }
        FrontRequest::Query { query } => FrontRequest::Query {
            query: query.clone(),
        },
        FrontRequest::Close => FrontRequest::Close,
    }
}

/// The tentpole oracle: N sessions' scripts, submissions interleaved
/// round-robin across sessions onto a 4-worker front-end, must produce
/// byte-identical per-session transcripts to the sequential
/// thread-per-request oracle.
#[test]
fn evented_tier_is_byte_identical_to_the_thread_per_request_oracle() {
    const SESSIONS: usize = 4;
    let pum = pum();
    let oracle = SapphireServer::new(pum.clone(), roomy_config());
    let fe = Frontend::new(
        Arc::new(SapphireServer::new(pum, roomy_config())),
        FrontendConfig {
            workers: 4,
            session_queue_depth: 100_000,
        },
    );

    let scripts: Vec<Vec<FrontRequest>> = (0..SESSIONS).map(session_script).collect();
    let expected: Vec<Vec<String>> = scripts
        .iter()
        .enumerate()
        .map(|(u, script)| oracle_transcript(&oracle, &format!("user-{u}"), script))
        .collect();

    // Evented side: open every session, then interleave submissions
    // round-robin so many sessions are in flight at once — the multiplexing
    // the reactor exists for. Responses append to per-session transcripts
    // in callback order, which the front-end guarantees is submission order
    // per session.
    let ids: Vec<SessionId> = (0..SESSIONS)
        .map(|u| fe.open_session(&format!("user-{u}")).unwrap())
        .collect();
    let transcripts: Vec<Arc<Mutex<Vec<String>>>> = (0..SESSIONS)
        .map(|_| Arc::new(Mutex::new(Vec::new())))
        .collect();
    let longest = scripts.iter().map(Vec::len).max().unwrap();
    for step in 0..longest {
        for (u, script) in scripts.iter().enumerate() {
            let Some(request) = script.get(step) else {
                continue;
            };
            let transcript = transcripts[u].clone();
            fe.submit(
                ids[u],
                clone_request(request),
                Box::new(move |result| transcript.lock().unwrap().push(render(&result))),
            )
            .expect("roomy queue accepts the whole script");
        }
    }
    let evented = fe.server().clone();
    let metrics = fe.shutdown();
    assert_eq!(metrics.completed, metrics.submitted, "drained completely");

    for (u, expected) in expected.iter().enumerate() {
        let got = transcripts[u].lock().unwrap();
        for (step, (g, e)) in got.iter().zip(expected.iter()).enumerate() {
            assert_eq!(
                g, e,
                "session user-{u} step {step}: evented transcript diverged from the oracle"
            );
        }
        assert_eq!(got.len(), expected.len(), "session user-{u}: length");
    }

    // Same answers is not enough: both admission styles walk the same
    // pre-gate and post-gate halves, so both servers must also have counted,
    // looked up and charged every request exactly once. (Hits vs misses
    // depend on how requests overlapped; lookups do not.)
    let ledger = |server: &SapphireServer| {
        let m = server.metrics();
        let usage: Vec<u64> = (0..SESSIONS)
            .map(|u| server.tenant_usage(&format!("user-{u}")))
            .collect();
        (
            (m.completion_requests, m.run_requests, m.service_requests),
            (
                m.rejected_overloaded,
                m.rejected_queue_timeout,
                m.rejected_quota,
            ),
            m.completion_cache.hits + m.completion_cache.misses,
            m.run_cache.hits + m.run_cache.misses,
            usage,
        )
    };
    let (oracle, evented) = (ledger(&oracle), ledger(&evented));
    assert!(oracle.0 .0 > 0 && oracle.0 .1 > 0 && oracle.4.iter().all(|&w| w > 0));
    assert_eq!(evented, oracle, "request ledgers diverged");
}

/// The same oracle over a half-warm response cache, so all three ways a
/// request can be answered interleave on each session: a cache hit or an
/// edit on an idle session is answered by its submitter, a miss is handed
/// over to a worker once, and whatever is submitted behind a hand-over
/// queues for that worker. Transcripts — callbacks in submission order —
/// and ledgers must still match the sequential oracle byte for byte.
#[test]
fn evented_tier_with_a_warm_cache_is_byte_identical_to_the_oracle() {
    const SESSIONS: usize = 4;
    let pum = pum();
    let oracle = SapphireServer::new(pum.clone(), roomy_config());
    let fe = Frontend::new(
        Arc::new(SapphireServer::new(pum, roomy_config())),
        FrontendConfig {
            workers: 4,
            session_queue_depth: 100_000,
        },
    );

    // Warm both sides with the first half of one script, one request at a
    // time.
    let warm_up = session_script(0);
    let warm_up = &warm_up[..warm_up.len() / 2];
    oracle_transcript(&oracle, "warm", warm_up);
    let warm = fe.open_session("warm").unwrap();
    for request in warm_up {
        let _ = fe.call(warm, clone_request(request));
    }
    assert!(matches!(
        fe.call(warm, FrontRequest::Close),
        Ok(FrontResponse::Closed)
    ));

    let scripts: Vec<Vec<FrontRequest>> = (0..SESSIONS).map(session_script).collect();
    let expected: Vec<Vec<String>> = scripts
        .iter()
        .enumerate()
        .map(|(u, script)| oracle_transcript(&oracle, &format!("user-{u}"), script))
        .collect();

    let ids: Vec<SessionId> = (0..SESSIONS)
        .map(|u| fe.open_session(&format!("user-{u}")).unwrap())
        .collect();
    let transcripts: Vec<Arc<Mutex<Vec<String>>>> = (0..SESSIONS)
        .map(|_| Arc::new(Mutex::new(Vec::new())))
        .collect();
    let longest = scripts.iter().map(Vec::len).max().unwrap();
    for step in 0..longest {
        for (u, script) in scripts.iter().enumerate() {
            let Some(request) = script.get(step) else {
                continue;
            };
            let transcript = transcripts[u].clone();
            fe.submit(
                ids[u],
                clone_request(request),
                Box::new(move |result| transcript.lock().unwrap().push(render(&result))),
            )
            .expect("roomy queue accepts the whole script");
        }
    }
    let evented = fe.server().clone();
    let metrics = fe.shutdown();
    assert_eq!(metrics.completed, metrics.submitted, "drained completely");
    assert_eq!(
        metrics.completed,
        metrics.answered_inline + metrics.answered_by_worker
    );
    assert!(
        metrics.answered_inline > 0
            && metrics.handed_over > 0
            && metrics.answered_by_worker > metrics.handed_over,
        "inline answers, hand-overs and queued requests all happened: {metrics:?}"
    );

    for (u, expected) in expected.iter().enumerate() {
        let got = transcripts[u].lock().unwrap();
        for (step, (g, e)) in got.iter().zip(expected.iter()).enumerate() {
            assert_eq!(
                g, e,
                "session user-{u} step {step}: evented transcript diverged from the oracle"
            );
        }
        assert_eq!(got.len(), expected.len(), "session user-{u}: length");
    }

    let ledger = |server: &SapphireServer| {
        let m = server.metrics();
        let usage: Vec<u64> = (0..SESSIONS)
            .map(|u| server.tenant_usage(&format!("user-{u}")))
            .collect();
        (
            (m.completion_requests, m.run_requests),
            m.completion_cache.hits + m.completion_cache.misses,
            m.run_cache.hits + m.run_cache.misses,
            usage,
        )
    };
    assert_eq!(
        ledger(&evented),
        ledger(&oracle),
        "request ledgers diverged"
    );
}

/// Shutdown drain: every submitted request is answered, no session leaks,
/// and the final queues are empty — the front-end's mirror of serve_check's
/// final-queue gate.
#[test]
fn shutdown_drains_queues_and_leaks_no_sessions() {
    const SESSIONS: usize = 16;
    let fe = Frontend::new(
        Arc::new(SapphireServer::new(pum(), roomy_config())),
        FrontendConfig {
            workers: 3,
            session_queue_depth: 1024,
        },
    );
    let answered = Arc::new(AtomicUsize::new(0));
    let mut submitted = 0u64;
    for u in 0..SESSIONS {
        let id = fe.open_session(&format!("user-{u}")).unwrap();
        for request in session_script(u).into_iter().take(24) {
            let answered = answered.clone();
            fe.submit(
                id,
                request,
                Box::new(move |_| {
                    answered.fetch_add(1, Ordering::SeqCst);
                }),
            )
            .unwrap();
            submitted += 1;
        }
        // The close rides the same queue: everything before it answers
        // first, then the session is gone.
        let answered = answered.clone();
        fe.submit(
            id,
            FrontRequest::Close,
            Box::new(move |r| {
                assert!(matches!(r, Ok(FrontResponse::Closed)));
                answered.fetch_add(1, Ordering::SeqCst);
            }),
        )
        .unwrap();
        submitted += 1;
    }
    let server = fe.server().clone();
    let metrics = fe.shutdown();
    assert_eq!(metrics.submitted, submitted);
    assert_eq!(metrics.completed, submitted, "every request answered");
    assert_eq!(answered.load(Ordering::SeqCst) as u64, submitted);
    assert_eq!(metrics.ready, 0, "final ready queue drained");
    assert_eq!(metrics.parked, 0, "no admission ticket left parked");
    assert_eq!(server.metrics().open_sessions, 0, "no leaked sessions");
}

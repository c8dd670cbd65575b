//! Observability-vs-oracle contracts: instrumentation must never perturb
//! answers.
//!
//! Two invariants pin the `sapphire-obs` layer:
//!
//! 1. **The tracing oracle.** The same Appendix-B workload, driven through
//!    the evented front-end with every request traced (`sampling = 1`,
//!    stage timers + span collection + flight-recorder pushes all live on
//!    the hot path), must produce per-session transcripts byte-identical to
//!    an untraced `SapphireServer` driven directly. Observation changes
//!    timing only, never bytes.
//!
//! 2. **The flight-recorder exemplar invariant.** Under concurrent pushes
//!    from 8 threads, each per-stage slowest-N list must hold *exactly* the
//!    N largest keys ever offered — the comparison runs under the list's
//!    mutex, so no racing push can sneak a smaller key in or drop a larger
//!    one — and the ring's accounting must balance (`recorded == retained +
//!    evicted`).

use std::sync::{Arc, Mutex};

use sapphire_core::{InitMode, PredictiveUserModel, SapphireConfig};
use sapphire_datagen::workload::appendix_b;
use sapphire_datagen::{generate, DatasetConfig};
use sapphire_endpoint::EndpointLimits;
use sapphire_obs::{FlightRecorder, Obs, SpanRecord, Stage, TraceRecord};
use sapphire_server::frontend::{FrontRequest, FrontResponse};
use sapphire_server::{
    Frontend, FrontendConfig, SapphireServer, ServerConfig, ServerError, SessionId,
};
use sapphire_text::Lexicon;

fn pum() -> Arc<PredictiveUserModel> {
    Arc::new(
        PredictiveUserModel::initialize_local(
            "trace-oracle",
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

/// Roomy posture: rejections are timing-dependent and would fail the byte
/// comparison for the wrong reason.
fn roomy_config() -> ServerConfig {
    ServerConfig {
        max_in_flight: 8,
        max_queue_depth: 1024,
        queue_wait: std::time::Duration::from_secs(30),
        ..ServerConfig::for_tests()
    }
}

/// The Appendix-B per-session script, as `serve_load` types it.
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
            modifiers: q.script.modifiers(),
        });
        script.push(FrontRequest::Run);
        script.push(FrontRequest::ApplyAlternative { index: 0 });
    }
    script
}

/// Canonical rendering: everything answer-determined, nothing
/// timing-determined (same contract as the root `frontend.rs` oracle).
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
fn direct_transcript(
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

/// The tracing oracle: fully-sampled tracing (`sampling = 1`) through the
/// evented front-end vs an untraced server driven directly — byte-identical
/// per-session transcripts, and the recorder must actually have seen every
/// submitted request (tracing was *on*, not silently skipped).
#[test]
fn full_sampling_is_byte_identical_to_the_untraced_oracle() {
    const SESSIONS: usize = 4;
    let pum = pum();
    // Untraced oracle: default Obs, sampling off (0), direct calls.
    let oracle = SapphireServer::new(pum.clone(), roomy_config());
    // Traced side: every request opens a root trace, every stage timer
    // appends spans, every completion pushes into the flight recorder.
    let obs = Arc::new(Obs::new());
    obs.set_sampling(1);
    let fe = Frontend::new(
        Arc::new(SapphireServer::with_obs(pum, roomy_config(), obs.clone())),
        FrontendConfig {
            workers: 4,
            session_queue_depth: 100_000,
        },
    );

    let scripts: Vec<Vec<FrontRequest>> = (0..SESSIONS).map(session_script).collect();
    let expected: Vec<Vec<String>> = scripts
        .iter()
        .enumerate()
        .map(|(u, script)| direct_transcript(&oracle, &format!("user-{u}"), script))
        .collect();

    let ids: Vec<SessionId> = (0..SESSIONS)
        .map(|u| fe.open_session(&format!("user-{u}")).unwrap())
        .collect();
    let transcripts: Vec<Arc<Mutex<Vec<String>>>> = (0..SESSIONS)
        .map(|_| Arc::new(Mutex::new(Vec::new())))
        .collect();
    let longest = scripts.iter().map(Vec::len).max().unwrap();
    let mut submitted = 0u64;
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
            submitted += 1;
        }
    }
    let metrics = fe.shutdown();
    assert_eq!(metrics.completed, metrics.submitted, "drained completely");

    for (u, expected) in expected.iter().enumerate() {
        let got = transcripts[u].lock().unwrap();
        for (step, (g, e)) in got.iter().zip(expected.iter()).enumerate() {
            assert_eq!(
                g, e,
                "session user-{u} step {step}: traced transcript diverged from the untraced oracle"
            );
        }
        assert_eq!(got.len(), expected.len(), "session user-{u}: length");
    }

    // The comparison only means something if tracing was really live.
    assert_eq!(
        obs.recorder().recorded(),
        submitted,
        "sampling=1 records every submitted request"
    );
    let qsm_exemplars = obs.recorder().slowest_for(Stage::QsmScan);
    assert!(
        !qsm_exemplars.is_empty(),
        "run requests left qsm_scan exemplars behind"
    );
    assert!(
        obs.recorder()
            .slowest(1)
            .first()
            .is_some_and(|r| !r.spans.is_empty()),
        "the slowest trace carries stage spans, not just a total"
    );
    let e2e = obs.stage_snapshot(Stage::EndToEnd);
    assert_eq!(e2e.count(), submitted, "every request timed end-to-end");
}

fn record(id: u64, us: u64) -> TraceRecord {
    TraceRecord {
        id,
        tenant: "t".to_string(),
        kind: "run",
        tier: String::new(),
        total_us: us,
        spans: vec![SpanRecord {
            name: Stage::QsmScan.name(),
            start_us: 0,
            dur_us: us,
            parent: None,
            tag: String::new(),
        }],
        dropped_spans: 0,
    }
}

/// Deterministic pseudo-shuffle of the push keys (Knuth multiplicative
/// hash), so threads interleave large and small keys.
fn key_for(id: u64) -> u64 {
    (id.wrapping_mul(2_654_435_761)) % 100_000 + 1
}

/// 8 threads hammer one recorder; afterwards the per-stage slowest-N list
/// holds exactly the N largest keys ever offered (as a multiset — ties at
/// the floor may keep either record), and the ring accounting balances.
#[test]
fn flight_recorder_slowest_exemplars_are_exact_under_8_threads() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 500;
    const KEEP: usize = 8;
    let recorder = FlightRecorder::new(256, KEEP);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let recorder = &recorder;
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    let id = t * PER_THREAD + i;
                    recorder.push(record(id, key_for(id)));
                }
            });
        }
    });
    let total = THREADS * PER_THREAD;
    assert_eq!(recorder.recorded(), total);
    assert_eq!(
        recorder.evicted() + recorder.recent().len() as u64,
        total,
        "every push either retained in the ring or counted evicted"
    );

    let mut keys: Vec<u64> = (0..total).map(key_for).collect();
    keys.sort_unstable();
    let expected = &keys[keys.len() - KEEP..];

    let stage_top: Vec<u64> = recorder
        .slowest_for(Stage::QsmScan)
        .iter()
        .map(|r| r.stage_us(Stage::QsmScan))
        .collect();
    assert_eq!(stage_top, expected, "per-stage slowest-N is exact");

    let mut total_top: Vec<u64> = recorder.slowest(KEEP).iter().map(|r| r.total_us).collect();
    total_top.reverse(); // slowest() returns slowest-first
    assert_eq!(total_top, expected, "end-to-end slowest-N is exact");
}

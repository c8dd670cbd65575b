//! Concurrency integration: many threads drive interleaved QCM/QSM traffic
//! against one shared `SapphireServer` — no deadlocks, per-session results
//! identical to a single-threaded reference run, and every load-shed request
//! rejected with a typed error.

use std::sync::Arc;

use sapphire_core::prelude::*;
use sapphire_core::InitMode;
use sapphire_server::{SapphireServer, ServerConfig, ServerError};

const THREADS: usize = 8;
const REQUESTS_PER_THREAD: usize = 50;

/// One distinct surname per thread, with `index + 1` people bearing it, so
/// every thread has its own unambiguous expected answer count.
const SURNAMES: [&str; THREADS] = [
    "Anderson",
    "Brockman",
    "Castillo",
    "Dunbar",
    "Eriksson",
    "Fitzgerald",
    "Grimaldi",
    "Hawthorne",
];

fn pum() -> Arc<PredictiveUserModel> {
    let mut turtle = String::new();
    for (t, surname) in SURNAMES.iter().enumerate() {
        for i in 0..=t {
            turtle.push_str(&format!(
                "res:P{t}_{i} a dbo:Person ; dbo:surname \"{surname}\"@en ; \
                 dbo:name \"Person {t} {i}\"@en .\n"
            ));
        }
    }
    let ep: Arc<dyn Endpoint> = Arc::new(LocalEndpoint::new(
        "dbpedia",
        sapphire_rdf::turtle::parse(&turtle).unwrap(),
        EndpointLimits::warehouse(),
    ));
    Arc::new(
        PredictiveUserModel::initialize(
            vec![ep],
            Lexicon::dbpedia_default(),
            SapphireConfig::for_tests(),
            InitMode::Federated,
        )
        .unwrap(),
    )
}

/// What one thread's request stream should observe, computed single-threaded.
#[derive(Debug, PartialEq)]
struct Expected {
    completion_texts: Vec<String>,
    answer_rows: usize,
}

fn reference_outputs(pum: &PredictiveUserModel, thread: usize) -> Expected {
    let surname = SURNAMES[thread];
    let completion_texts = {
        let prefix = &surname[..4];
        let mut texts: Vec<String> = pum
            .complete(prefix)
            .suggestions
            .into_iter()
            .map(|c| c.text)
            .collect();
        texts.sort();
        texts
    };
    let mut session = Session::new(pum);
    session.set_row(0, TripleInput::new("?who", "surname", surname));
    let result = session.run().unwrap();
    Expected {
        completion_texts,
        answer_rows: result.answers.total_rows(),
    }
}

#[test]
fn interleaved_sessions_are_deterministic_and_deadlock_free() {
    let pum = pum();
    let expected: Vec<Expected> = (0..THREADS).map(|t| reference_outputs(&pum, t)).collect();

    // Generous limits: nothing should be shed in this scenario.
    let config = ServerConfig {
        max_in_flight: THREADS,
        max_queue_depth: THREADS * REQUESTS_PER_THREAD,
        ..ServerConfig::for_tests()
    };
    let server = Arc::new(SapphireServer::new(pum, config));

    std::thread::scope(|scope| {
        for (t, expect) in expected.iter().enumerate() {
            let server = server.clone();
            scope.spawn(move || {
                let surname = SURNAMES[t];
                let session = server.open_session(&format!("tenant-{t}")).unwrap();
                let mut runs = 0;
                for i in 0..REQUESTS_PER_THREAD {
                    if i % 2 == 0 {
                        // QCM request: suggestions must match the reference
                        // (timings aside) on every single call.
                        let result = server.complete(session, &surname[..4]).unwrap();
                        let mut texts: Vec<String> =
                            result.suggestions.into_iter().map(|c| c.text).collect();
                        texts.sort();
                        assert_eq!(texts, expect.completion_texts, "thread {t} request {i}");
                    } else {
                        // QSM request: same rows every time, attempts count up.
                        server
                            .set_row(session, 0, TripleInput::new("?who", "surname", surname))
                            .unwrap();
                        let out = server.run(session).unwrap();
                        runs += 1;
                        assert!(out.executed);
                        assert_eq!(
                            out.answers.total_rows(),
                            expect.answer_rows,
                            "thread {t} request {i}"
                        );
                        assert_eq!(out.attempts, runs, "per-session attempt counter");
                    }
                }
                assert!(server.close_session(session));
            });
        }
    });

    let metrics = server.metrics();
    assert_eq!(
        metrics.completion_requests as usize,
        THREADS * REQUESTS_PER_THREAD / 2
    );
    assert_eq!(
        metrics.run_requests as usize,
        THREADS * REQUESTS_PER_THREAD / 2
    );
    assert_eq!(
        metrics.rejected_overloaded + metrics.rejected_queue_timeout,
        0,
        "nothing shed under generous limits"
    );
    assert_eq!(metrics.open_sessions, 0, "all sessions closed");
    // Identical requests within a thread must have shared cached responses.
    assert!(metrics.completion_cache.hits > 0);
    assert!(metrics.run_cache.hits > 0);
}

#[test]
fn overloaded_server_sheds_with_typed_errors_only() {
    let config = ServerConfig {
        max_in_flight: 1,
        max_queue_depth: 1,
        queue_wait: std::time::Duration::from_millis(2),
        ..ServerConfig::for_tests()
    };
    let server = Arc::new(SapphireServer::new(pum(), config));

    let mut ok = 0usize;
    let mut shed = 0usize;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (t, surname) in SURNAMES.iter().enumerate() {
            let server = server.clone();
            handles.push(scope.spawn(move || {
                let session = server.open_session(&format!("tenant-{t}")).unwrap();
                let mut ok = 0usize;
                let mut shed = 0usize;
                for i in 0..REQUESTS_PER_THREAD {
                    match server.complete(session, &surname[..3 + (i % 3)]) {
                        Ok(_) => ok += 1,
                        Err(e) => {
                            assert!(
                                matches!(
                                    e,
                                    ServerError::Overloaded { .. }
                                        | ServerError::QueueTimeout { .. }
                                ),
                                "rejections must be typed back-pressure, got {e:?}"
                            );
                            assert!(e.is_rejection());
                            shed += 1;
                        }
                    }
                }
                (ok, shed)
            }));
        }
        for h in handles {
            let (o, s) = h.join().unwrap();
            ok += o;
            shed += s;
        }
    });

    assert_eq!(
        ok + shed,
        THREADS * REQUESTS_PER_THREAD,
        "every request accounted for"
    );
    assert!(ok > 0, "the admitted stream still makes progress");
    let metrics = server.metrics();
    assert_eq!(
        metrics.rejected_overloaded + metrics.rejected_queue_timeout,
        shed as u64,
        "metrics agree with observed rejections"
    );
}

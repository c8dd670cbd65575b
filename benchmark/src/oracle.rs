//! Correctness: every sampled response must be byte-identical to what the
//! library answers when asked the same thing directly, single-threaded,
//! with no serving tier in between.
//!
//! "Bytes" are a canonical rendering of everything a user sees — the
//! suggestion list, the answers, the term alternatives with their
//! prefetched answers, the relaxations — and nothing a clock wrote
//! (`tree_time`, `elapsed`) or that belongs to one session (`attempts`,
//! `cached`).
//!
//! The oracle answers *after* the measured passes and the readings that
//! follow them, so its work is in no pass's CPU time and in none of the
//! counters a run reports; what answers is described at [`Oracle`]. Between
//! a pass and the check a sampled response is kept as a [`Digest`]: the
//! hash of its rendering (a cold Run renders to some 200 KB).

use sapphire_cluster::ClusterRouter;
use sapphire_core::qcm::Completion;
use sapphire_core::qsm::{StructureSuggestion, TermAlternative};
use sapphire_core::session::Session;
use sapphire_core::PredictiveUserModel;
use sapphire_sparql::Solutions;

use crate::drive::{Asked, Response, Sample};
use crate::pool::{fnv1a, FNV_SEED};

/// A sampled response, reduced to what the check needs.
pub struct Digest {
    asked: Asked,
    /// FNV-1a of the rendering.
    hash: u64,
    /// The head of the rendering, for the mismatch report.
    head: String,
}

fn head_of(rendering: &str) -> String {
    rendering.chars().take(240).collect()
}

/// Reduce a pass's samples, dropping the responses.
pub fn digest(samples: Vec<Sample>) -> impl Iterator<Item = Digest> {
    samples.into_iter().map(|sample| {
        let rendering = response_bytes(&sample.response);
        Digest {
            asked: sample.asked,
            hash: fnv1a(FNV_SEED, rendering.as_bytes()),
            head: head_of(&rendering),
        }
    })
}

fn completion_bytes(suggestions: &[Completion]) -> String {
    format!("{suggestions:?}")
}

fn run_bytes(
    answers: &Solutions,
    executed: bool,
    alternatives: &[TermAlternative],
    relaxations: &[StructureSuggestion],
    tier: usize,
    degraded: bool,
) -> String {
    format!("{executed}|{tier}|{degraded}|{answers:?}|{alternatives:?}|{relaxations:?}")
}

/// What the system answered, rendered.
fn response_bytes(response: &Response) -> String {
    match response {
        Response::Completion(c) => completion_bytes(&c.suggestions),
        Response::EdgeCompletion(c) => completion_bytes(&c.suggestions),
        Response::Run(out) => run_bytes(
            out.answers.solutions(),
            out.executed,
            &out.suggestions.alternatives,
            &out.suggestions.relaxations,
            out.suggestions.tier,
            out.suggestions.degraded,
        ),
        Response::EdgeRun(run) => {
            let p = &run.payload;
            run_bytes(
                &p.answers,
                p.executed,
                &p.alternatives,
                &p.relaxations,
                p.tier,
                p.degraded,
            )
        }
    }
}

/// The reference a workload's responses are held to.
pub enum Oracle<'a> {
    /// The unsharded model, called as a library. Runs are answered by
    /// `runs`, a model assembled a second time from the served model's
    /// initialization results ([`SingleBox::oracle_model`]) — so every memo
    /// cache a Run goes through is the oracle's own. Completions are
    /// answered by the served model itself: which of the matches beyond its
    /// limit a suffix-tree lookup returns depends on that tree instance's
    /// hash order (README, "Findings"), so no second tree can be held to
    /// the first byte for byte — and a completion passes through no memo
    /// cache inside the model.
    ///
    /// [`SingleBox::oracle_model`]: crate::fixture::SingleBox::oracle_model
    Library {
        completions: &'a PredictiveUserModel,
        runs: &'a PredictiveUserModel,
    },
    /// The same shards in one process, no sockets. Cluster QSM relaxes
    /// shard-locally and is known to differ from the unsharded library on
    /// boundary entities (ROADMAP item 2), so what `cluster_wire` can be
    /// held to is the in-process cluster — which pins exactly the layers
    /// that workload exists for: snapshot, wire, process boundary.
    InProcessCluster(&'a ClusterRouter),
}

impl Oracle<'_> {
    fn answer(&self, asked: &Asked) -> Result<String, String> {
        match (self, asked) {
            (
                Oracle::Library {
                    completions: pum, ..
                },
                Asked::Prefix(typed),
            ) => Ok(completion_bytes(
                &pum.complete_top(typed, pum.config().k).suggestions,
            )),
            (Oracle::Library { runs: pum, .. }, Asked::Run(cycle)) => {
                let query = Session::resume(pum, cycle.rows.clone(), cycle.modifiers.clone(), 0)
                    .build_query()
                    .map_err(|e| format!("oracle cannot build {:?}: {e}", cycle.rows))?;
                let out = pum.run(&query);
                Ok(run_bytes(
                    &out.answers,
                    out.executed,
                    &out.suggestions.alternatives,
                    &out.suggestions.relaxations,
                    out.suggestions.tier,
                    out.suggestions.degraded,
                ))
            }
            (Oracle::InProcessCluster(router), Asked::Prefix(typed)) => router
                .complete("oracle", typed)
                .map(|c| completion_bytes(&c.suggestions))
                .map_err(|e| format!("oracle complete {typed:?}: {e}")),
            (Oracle::InProcessCluster(router), Asked::Run(cycle)) => {
                let query = cycle.query.as_ref().ok_or("edge cycle without a query")?;
                router
                    .run("oracle", query)
                    .map(|run| response_bytes(&Response::EdgeRun(run)))
                    .map_err(|e| format!("oracle run {:?}: {e}", cycle.rows))
            }
        }
    }

    /// `(checked, identical)` over `digests`; the first few mismatches are
    /// described on stderr.
    pub fn check(&self, digests: &[Digest]) -> (u64, u64) {
        let mut identical = 0;
        let mut shown = 0;
        for digest in digests {
            match self.answer(&digest.asked) {
                Ok(want) if fnv1a(FNV_SEED, want.as_bytes()) == digest.hash => identical += 1,
                other => {
                    if shown < 3 {
                        shown += 1;
                        let asked = match &digest.asked {
                            Asked::Prefix(typed) => typed.clone(),
                            Asked::Run(cycle) => format!("{:?}", cycle.rows),
                        };
                        eprintln!(
                            "oracle mismatch for {asked}:\n  system: {}\n  oracle: {}",
                            digest.head,
                            head_of(&other.unwrap_or_else(|e| e)),
                        );
                    }
                }
            }
        }
        (digests.len() as u64, identical)
    }
}

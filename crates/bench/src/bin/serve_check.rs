//! CI regression gate for the serving tier: counts, invariants and same-run
//! ratios. Speed belongs to `BENCHMARK.json` (ten seeds, 30 s runs, bounds
//! from measured spread); nothing here compares a timing with a number
//! from another run or another machine.
//!
//! Runs the `serve_load` workloads in-process (via [`sapphire_bench::serve`]
//! and its siblings, the same code the `serve_load` binary runs), reads each
//! run's [`MetricsHub`] by `(section, field)` and **fails the build** — exit
//! code 1 — when a gate does not hold. A gated field that is missing from
//! the report fails its gate; nothing passes by absence.
//!
//! Single-server workload ([`serve_gates`]):
//!
//! * `summary.rejected_total == 0` — the fixed-seed workload fits the
//!   default gate; any shedding is a regression in admission or a stall in
//!   the hot path. `server.open_sessions == 0` — every load-generator
//!   session closed. `stats.final_queued == 0` — pressure drained.
//! * both caches' *effective* hit ratios ≥ 0.90 — the paper's >90%
//!   hit-ratio claim, kept true under the serving tier. Effective = cache
//!   hits plus single-flight followers (served from a concurrent identical
//!   request's scan), over all lookups: the fraction of requests that cost
//!   no model scan, which unlike the raw ratio does not depend on how
//!   requests overlapped on a noisy runner. (The check runs two rounds:
//!   the Appendix-B list has ~12% unique queries per round, so a single
//!   round *by construction* cannot clear the floor even with a perfect
//!   cache — one round fills, the second must hit.)
//! * `leader_runs + bypass_runs ≤ 2 × burst_rounds` in the duplicate-burst
//!   phase — a burst of identical cold requests must cost ~one model scan
//!   per request class per round, not one per user (bypass scans count, so
//!   a broken waiter cap cannot pass on leader count alone).
//! * `server.qsm_degraded_runs == 0` — this is the default no-shed posture
//!   (`qsm_shed_budget` off), so *no* run may come back at a reduced budget
//!   tier.
//! * request ledger — for the closed-loop server (`request_ledger`) and the
//!   front-end's (`frontend`), QCM and runs *offered* by the harness equal
//!   those *counted* by the server's pre-gate: a request counted twice (or
//!   never) by the shared request path changes no answer, so only this
//!   gate sees it.
//! * stages — at least 8 of the 11 named stages recorded observations, and
//!   no stage's p99 exceeds the `end_to_end` max (every stage nests inside
//!   some recorded request; `exec_queue` also times warm-up tasks that run
//!   outside any request and is exempt).
//! * tracing — `trace.dropped == 0` at default sampling, and the cache-hit
//!   hot loop sampled at 1/64 keeps ≥ 90% of its untraced rate (both sides
//!   measured in alternating chunks of this run).
//! * executor — `spawns_avoided ≥ 1`, `tasks_run + inline_runs ==
//!   spawns_avoided` after the drain, zero panics.
//! * medium smoke — the `medium`-rung scatter ran, completed every cold
//!   request, and fanned each out to all 4 shards.
//! * front-end — ≥ 2,000 open think-time sessions on ≤ 8 workers: zero
//!   rejections, nothing leaked, backlog drained, every accepted request
//!   answered once (`completed == submitted == answered_inline +
//!   answered_by_worker`), the all-hit hot phase answered some requests on
//!   the submitting thread, the fleet inside a fixed thread/RSS budget, and
//!   the closed-loop hot phase creates **zero** new threads (steady-state
//!   serving runs entirely on warm pools).
//!
//! Cluster smoke, 2 shards × 2 replicas ([`cluster_gates`]): zero
//! rejections after bounded retry, zero requests out of retry budget, zero
//! merge mismatches against a cold second edge, and the shard-call ledger —
//! every shard call the router counted (`cluster.fanout_total`) was observed
//! as a `shard_rtt` round trip or fired as a hedge inside one, so no call
//! site routes round the one shard-call policy.
//!
//! Overload smoke, a bounded open-loop sweep past saturation
//! ([`overload_gates`]; see [`sapphire_bench::overload`]): past-saturation
//! goodput ≥ 50% of the sweep's peak, zero untyped failures, zero
//! tier-keyed cache cross-contamination, a monotone offered-load sweep.
//!
//! Wire smoke, the cluster workload over loopback sockets with one replica
//! crashed mid-run ([`wire_gates`]; see [`sapphire_bench::wire`]): zero
//! surviving rejections, zero divergences from the in-process oracle, the
//! crash is real and visible (`wire_io_errors ≥ 1`, the dead replica
//! refuses a direct probe), and the same shard-call ledger.
//!
//! Snapshot smoke, shard **processes** brought up from freshly written
//! columnar snapshots ([`snapshot_gates`]): every child loaded its snapshot
//! (zero generate fallbacks), byte-identical to the generate-from-scratch
//! oracle, and the slowest snapshot load beat the parent's
//! generate+partition time measured in the same run.
//!
//! Usage: `cargo run --release -p sapphire-bench --bin serve_check
//!         [--rounds 2]`

use sapphire_bench::args::Args;
use sapphire_bench::cluster::{self, ClusterLoadOptions};
use sapphire_bench::overload::{self, OverloadOptions};
use sapphire_bench::serve::{self, ServeLoadOptions};
use sapphire_bench::wire::{self, WireLoadOptions};
use sapphire_obs::MetricsHub;

/// One judged gate: its name, whether it held, and the numbers behind it.
type Row = (String, bool, String);

/// One phase's gate table: a report in, one row per gate out.
type GateTable = fn(&MetricsHub) -> Vec<Row>;

/// Judges one report, one row per gate.
struct Gates<'a> {
    hub: &'a MetricsHub,
    rows: Vec<Row>,
}

impl<'a> Gates<'a> {
    fn over(hub: &'a MetricsHub) -> Self {
        Gates {
            hub,
            rows: Vec::new(),
        }
    }

    /// Read `fields` and let `judge` rule on their values; a field the
    /// report does not carry fails the gate by name.
    fn check<const N: usize>(
        &mut self,
        name: &str,
        fields: [(&str, &str); N],
        judge: impl FnOnce([f64; N]) -> (bool, String),
    ) {
        let mut values = [0.0; N];
        for (slot, (section, field)) in values.iter_mut().zip(fields) {
            match self.hub.get_f64(section, field) {
                Some(v) => *slot = v,
                None => {
                    let detail = format!("{section}.{field} is missing from the report");
                    self.rows.push((name.to_string(), false, detail));
                    return;
                }
            }
        }
        let (pass, detail) = judge(values);
        self.rows.push((name.to_string(), pass, detail));
    }

    /// `section.field` must be 0; `what` says what a non-zero count means.
    fn zero(&mut self, name: &str, section: &str, field: &str, what: &str) {
        self.check(name, [(section, field)], |[v]| {
            (v == 0.0, format!("{v} {what} (must be 0)"))
        });
    }

    /// A router's report: every shard call counted in the fan-out is one
    /// `shard_rtt` observation, or a hedge fired inside one.
    fn shard_call_ledger(&mut self, name: &str) {
        self.check(
            name,
            [
                ("cluster", "fanout_total"),
                ("shard_rtt", "count"),
                ("cluster", "hedges_fired"),
            ],
            |[fanout, observed, hedges]| {
                (
                    fanout == observed + hedges && fanout > 0.0,
                    format!(
                        "{fanout} shard calls counted, {observed} observed + {hedges} hedges \
                         (must be equal)"
                    ),
                )
            },
        );
    }
}

const STAGES: [&str; 11] = [
    "frontend_queue",
    "admission_wait",
    "coalesce_wait",
    "cache_lookup",
    "qcm_scan",
    "qsm_scan",
    "steiner_relax",
    "shard_rtt",
    "edge_merge",
    "exec_queue",
    "end_to_end",
];

/// The single-server workload's gates (see the module docs).
fn serve_gates(hub: &MetricsHub) -> Vec<Row> {
    let mut g = Gates::over(hub);
    g.zero(
        "rejected_total",
        "summary",
        "rejected_total",
        "typed rejections",
    );
    g.zero(
        "sessions_leaked",
        "server",
        "open_sessions",
        "sessions still open",
    );
    // The >90% floor gates the *effective* ratio — requests served without
    // a model scan, i.e. response-cache hits plus single-flight followers.
    // A follower logs a genuine cache miss (nothing was cached yet) but
    // costs no scan; counting it against the floor would make the gate
    // wobble with request overlap (scheduler noise), not with regressions.
    for cache in ["completion_cache", "run_cache"] {
        g.check(
            &format!("{cache}.effective_hit_ratio"),
            [(cache, "effective_hit_ratio")],
            |[ratio]| (ratio >= 0.90, format!("{ratio:.3} (floor 0.90)")),
        );
    }
    // Single-flight contract: a burst of identical cold requests costs one
    // scan per request class per round (QCM + QSM), give or take nothing.
    // Bypass scans count too — a regression that made every duplicate
    // bypass (e.g. a broken waiter cap) must not pass on leader count alone.
    g.check(
        "duplicate_burst scans",
        [
            ("config", "burst_rounds"),
            ("duplicate_burst", "leader_runs"),
            ("duplicate_burst", "bypass_runs"),
        ],
        |[rounds, leaders, bypasses]| {
            let (scans, cap) = (leaders + bypasses, 2.0 * rounds);
            (
                scans <= cap,
                format!("{scans} scans for {rounds} burst rounds (cap {cap})"),
            )
        },
    );
    g.zero(
        "server.qsm_degraded_runs",
        "server",
        "qsm_degraded_runs",
        "degraded-budget runs with qsm_shed_budget off",
    );
    g.zero(
        "stats.final_queued",
        "stats",
        "final_queued",
        "requests still queued after the workload",
    );
    // Both admission styles count in the server's one pre-gate.
    for section in ["request_ledger", "frontend"] {
        for tier in ["qcm", "runs"] {
            g.check(
                &format!("{section} ledger: {tier}"),
                [
                    (section, &format!("offered_{tier}")),
                    (section, &format!("counted_{tier}")),
                ],
                |[offered, counted]| {
                    (
                        offered == counted && offered > 0.0,
                        format!("{offered} offered, {counted} counted (must be equal)"),
                    )
                },
            );
        }
    }

    // A stage that silently stopped recording is an instrumentation
    // regression, not a tuning knob; an unrecorded stage has no section.
    let recorded: Vec<&str> = STAGES
        .into_iter()
        .filter(|stage| hub.get_f64(stage, "count").is_some_and(|c| c >= 1.0))
        .collect();
    g.rows.push((
        "stages coverage".to_string(),
        recorded.len() >= 8,
        format!("{} stages recorded: {recorded:?} (floor 8)", recorded.len()),
    ));
    // Percentiles report bucket ceilings clamped to the exact max, so a p99
    // above the end-to-end max means a stage timer leaked outside request
    // scope (or a histogram merged the wrong shard).
    for &stage in &recorded {
        if stage == "end_to_end" || stage == "exec_queue" {
            continue;
        }
        g.check(
            &format!("stages.{stage}.p99_us"),
            [(stage, "p99_us"), ("end_to_end", "max_us")],
            |[p99, e2e_max]| {
                (
                    p99 <= e2e_max,
                    format!("{p99}us vs end_to_end max {e2e_max}us"),
                )
            },
        );
    }
    g.zero(
        "trace.dropped",
        "trace",
        "dropped",
        "traces dropped at default sampling",
    );
    g.check(
        "trace sampling overhead",
        [("trace", "hot_rps_sampled"), ("trace", "hot_rps_untraced")],
        |[sampled, untraced]| {
            (
                sampled >= 0.9 * untraced,
                format!(
                    "{sampled:.0} rps sampled (1/64) vs {untraced:.0} rps untraced \
                     (floor 90%, ratio {:.3})",
                    sampled / untraced.max(1.0)
                ),
            )
        },
    );

    g.check("exec.spawns_avoided", [("exec", "spawns_avoided")], |[n]| {
        (
            n >= 1.0,
            format!("{n} thread spawns avoided (must be >= 1)"),
        )
    });
    // Every task submitted was run exactly once, by a worker or inline by
    // a caller helping out; an imbalance after the full drain would mean
    // lost or duplicated tasks.
    g.check(
        "exec task accounting",
        [
            ("exec", "tasks_run"),
            ("exec", "inline_runs"),
            ("exec", "spawns_avoided"),
        ],
        |[worker, inline, submitted]| {
            (
                worker + inline == submitted,
                format!(
                    "{worker} worker + {inline} inline runs vs {submitted} submitted \
                     (must balance after drain)"
                ),
            )
        },
    );
    g.zero(
        "exec.panicked",
        "exec",
        "panicked",
        "detached jobs panicked",
    );

    // Latencies of the medium smoke are reported, not gated.
    g.check("medium_smoke ran", [("medium_smoke", "requests")], |[n]| {
        (n >= 1.0, format!("{n} requests (must be >= 1)"))
    });
    if hub.get_f64("medium_smoke", "requests") >= Some(1.0) {
        g.check(
            "medium_smoke.scatter completed",
            [
                ("medium_smoke", "requests"),
                ("medium_smoke", "completed"),
                ("medium_smoke", "invalid"),
            ],
            |[requests, completed, invalid]| {
                (
                    completed == requests && invalid == 0.0,
                    format!("{completed}/{requests} cold scatters, {invalid} invalid"),
                )
            },
        );
        g.check(
            "medium_smoke.fanout_total",
            [
                ("medium_smoke", "requests"),
                ("medium_smoke", "fanout_total"),
            ],
            |[requests, fanout]| {
                (
                    fanout == requests * 4.0,
                    format!(
                        "{fanout} (must be requests x 4 shards = {})",
                        requests * 4.0
                    ),
                )
            },
        );
    }

    g.check(
        "frontend.sessions/workers",
        [("frontend", "sessions"), ("frontend", "workers")],
        |[sessions, workers]| {
            (
                sessions >= 2000.0 && workers <= 8.0,
                format!("{sessions} sessions on {workers} workers"),
            )
        },
    );
    g.zero(
        "frontend.rejected_total",
        "frontend",
        "rejected_total",
        "rejections at think-time load",
    );
    g.zero(
        "frontend.sessions_leaked",
        "frontend",
        "sessions_leaked",
        "sessions still open",
    );
    g.zero(
        "frontend.final_backlog",
        "frontend",
        "final_backlog",
        "requests still queued",
    );
    // Every accepted request is answered exactly once, by the thread that
    // submitted it or by a worker — whichever path its dispatch took.
    g.check(
        "frontend.answered once",
        [
            ("frontend", "submitted"),
            ("frontend", "completed"),
            ("frontend", "answered_inline"),
            ("frontend", "answered_by_worker"),
        ],
        |[submitted, completed, inline, by_worker]| {
            (
                completed == submitted && completed == inline + by_worker && completed > 0.0,
                format!(
                    "{submitted} submitted, {completed} completed = {inline} inline + \
                     {by_worker} by a worker (must be equal)"
                ),
            )
        },
    );
    // A cache hit on an idle session needs no worker: the all-hit hot loop
    // must have answered some on the submitting thread.
    g.check(
        "frontend.hot loop answers inline",
        [("frontend", "hot_answered_inline")],
        |[inline]| {
            (
                inline > 0.0,
                format!("{inline} hot requests answered by their submitter (must be > 0)"),
            )
        },
    );
    // The thread-per-session failure mode is exactly a thread count that
    // scales with sessions.
    g.check(
        "frontend.threads_peak",
        [("frontend", "threads_peak")],
        |[peak]| {
            (
                peak <= 48.0,
                format!("{peak} (budget 48; 0 = /proc unavailable)"),
            )
        },
    );
    // The hot loop runs after every pool (workers, reactor, shared
    // executor) is warm, so the process thread count sampled before and
    // after it must match exactly. This is the gate that keeps
    // spawn-per-request from creeping back in.
    g.check(
        "frontend.hot loop creates zero threads",
        [
            ("frontend", "hot_threads_before"),
            ("frontend", "hot_threads_after"),
        ],
        |[before, after]| {
            (
                before == after && (before > 0.0 || cfg!(not(target_os = "linux"))),
                format!("{before} threads before hot loop, {after} after (must be equal)"),
            )
        },
    );
    g.check(
        "frontend.rss_peak_kb",
        [("frontend", "rss_peak_kb")],
        |[peak]| {
            (
                peak <= 2_097_152.0,
                format!("{peak} (budget 2 GiB; 0 = /proc unavailable)"),
            )
        },
    );
    g.rows
}

/// The sharded tier's contracts: every request survives routing (typed
/// rejections are retried/failed over, so zero reach the client) and merges
/// are deterministic (a cold second edge over the same shards reproduces
/// every byte).
fn cluster_gates(hub: &MetricsHub) -> Vec<Row> {
    let mut g = Gates::over(hub);
    g.zero(
        "cluster rejected_total",
        "summary",
        "rejected_total",
        "rejections after bounded retry",
    );
    g.zero(
        "cluster merge_mismatches",
        "summary",
        "merge_mismatches",
        "non-deterministic merges",
    );
    g.zero(
        "cluster rejected_after_retry",
        "cluster",
        "rejected_after_retry",
        "requests exhausted the retry budget",
    );
    g.shard_call_ledger("cluster shard-call ledger");
    g.rows
}

/// Graceful degradation past saturation: goodput at the deepest offered
/// load holds, every shed request fails *typed*, and tier-keyed caches
/// never leak a degraded payload into a tier-0 lookup.
fn overload_gates(hub: &MetricsHub) -> Vec<Row> {
    let mut g = Gates::over(hub);
    g.check(
        "overload goodput_floor_ratio",
        [
            ("overload", "goodput_floor_ratio"),
            ("overload", "past_saturation_goodput_rps"),
            ("overload", "peak_goodput_rps"),
        ],
        |[ratio, past, peak]| {
            (
                ratio >= 0.5,
                format!(
                    "past-saturation goodput is {:.0}% of peak ({past:.1} vs {peak:.1} rps; \
                     floor 50%)",
                    ratio * 100.0
                ),
            )
        },
    );
    g.zero(
        "overload untyped_failures",
        "overload",
        "untyped_failures",
        "failures without a typed rejection",
    );
    g.zero(
        "overload tier_mix_violations",
        "overload",
        "tier_mix_violations",
        "degraded payloads leaked into tier-0 lookups",
    );
    g.check(
        "overload monotone_offered",
        [("overload", "monotone_offered")],
        |[flag]| {
            (
                flag == 1.0,
                format!("offered-load sweep monotone flag = {flag} (must be 1)"),
            )
        },
    );
    g.rows
}

/// The transport's contracts under replica loss: the router's bounded
/// retry + failover absorbs it, the socket path reproduces the in-process
/// oracle's bytes, and the crash is real and *visible*.
fn wire_gates(hub: &MetricsHub) -> Vec<Row> {
    let mut g = Gates::over(hub);
    g.zero(
        "wire rejected_total",
        "summary",
        "rejected_total",
        "errors survived bounded retry under replica loss",
    );
    g.zero(
        "wire merge_mismatches",
        "summary",
        "merge_mismatches",
        "divergences from the in-process oracle",
    );
    g.check(
        "wire replica kill drill",
        [
            ("kill_drill", "replica_killed"),
            ("kill_drill", "dead_probe_failed"),
        ],
        |[killed, probe_failed]| {
            (
                killed == 1.0 && probe_failed == 1.0,
                format!(
                    "replica_killed={killed} dead_probe_failed={probe_failed} (both must be \
                     1: the crash happened and the dead replica refuses direct calls)"
                ),
            )
        },
    );
    g.check(
        "wire io_errors observed",
        [("cluster", "wire_io_errors")],
        |[n]| {
            (
                n >= 1.0,
                format!("{n} transport errors counted (must be >= 1 after a crash)"),
            )
        },
    );
    g.zero(
        "wire rejected_after_retry",
        "cluster",
        "rejected_after_retry",
        "requests exhausted the retry budget",
    );
    g.shard_call_ledger("wire shard-call ledger");
    g.rows
}

/// The snapshot format's contracts: every child loads its snapshot (a
/// fallback means the bytes were rejected), the snapshot-fed fleet answers
/// byte-identically to the oracle built by generating from scratch, and
/// the slowest child's load is strictly faster than the parent's
/// generate+partition (the regenerate path every child would otherwise pay).
fn snapshot_gates(hub: &MetricsHub) -> Vec<Row> {
    let mut g = Gates::over(hub);
    g.check(
        "snapshot loads",
        [
            ("config", "shards"),
            ("config", "replicas"),
            ("bringup", "snapshot_loads"),
            ("bringup", "generate_fallbacks"),
        ],
        |[shards, replicas, loads, fallbacks]| {
            let children = shards * replicas;
            (
                loads == children && fallbacks == 0.0,
                format!(
                    "{loads} of {children} children loaded snapshots, {fallbacks} fell \
                     back to generate (must be all / 0)"
                ),
            )
        },
    );
    g.zero(
        "snapshot merge_mismatches",
        "summary",
        "merge_mismatches",
        "divergences from the generate-path oracle",
    );
    g.zero(
        "snapshot rejected_total",
        "summary",
        "rejected_total",
        "errors surfaced to clients",
    );
    g.check(
        "snapshot bringup faster than regenerate",
        [
            ("bringup", "max_child_data_us"),
            ("bringup", "parent_generate_us"),
            ("bringup", "parent_partition_us"),
        ],
        |[load, generate, partition]| {
            let regenerate = generate + partition;
            (
                load < regenerate,
                format!(
                    "slowest child snapshot load {load}µs vs parent generate+partition \
                     {regenerate}µs (must be strictly faster)"
                ),
            )
        },
    );
    g.rows
}

/// `--rounds N` (default 2), the only flag.
fn parse(mut args: Args) -> Result<usize, String> {
    let rounds = args.number("--rounds", 2)?;
    args.finish()?;
    Ok(rounds)
}

fn main() {
    let rounds = parse(Args::from_env()).unwrap_or_else(|e| {
        eprintln!("serve_check: {e}");
        std::process::exit(2);
    });

    let mut failures = 0;
    let mut judge = |hub: MetricsHub, gates: GateTable| {
        println!("{}", hub.to_json());
        for (name, pass, detail) in gates(&hub) {
            eprintln!("{} {name}: {detail}", if pass { "PASS" } else { "FAIL" });
            failures += u32::from(!pass);
        }
    };

    let opts = ServeLoadOptions {
        rounds,
        // A relaxed queue deadline: the zero-rejection gate must catch real
        // admission regressions, not a noisy CI runner descheduling one
        // thread past the serving posture's 100ms for a moment.
        queue_wait_ms: 1_000,
        ..ServeLoadOptions::default()
    };
    judge(serve::run(&opts), serve_gates);
    eprintln!("\n(cluster smoke gate: 2 shards x 2 replicas…)");
    judge(cluster::run(&ClusterLoadOptions::default()), cluster_gates);
    eprintln!("\n(overload smoke gate: open-loop sweep, 2 shards x 2 replicas…)");
    judge(overload::run(&OverloadOptions::smoke()), overload_gates);
    eprintln!(
        "\n(wire smoke gate: 2 shards x 2 replicas over sockets, one replica killed mid-run…)"
    );
    judge(wire::run(&WireLoadOptions::smoke()), wire_gates);
    eprintln!("\n(snapshot smoke gate: shard processes from columnar snapshots at tiny…)");
    judge(
        wire::run(&WireLoadOptions::snapshot_smoke()),
        snapshot_gates,
    );

    if failures > 0 {
        eprintln!("serve_check: {failures} gate(s) FAILED");
        std::process::exit(1);
    }
    eprintln!("serve_check: all gates passed");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report every gate of its phase passes, as `(section, field, value)`
    /// rows. Eight stages are recorded — the coverage floor exactly, so
    /// dropping any one `count` must fail.
    type Fixture = &'static [(&'static str, &'static str, f64)];

    const SERVE: Fixture = &[
        ("summary", "rejected_total", 0.0),
        ("server", "open_sessions", 0.0),
        ("server", "qsm_degraded_runs", 0.0),
        ("completion_cache", "effective_hit_ratio", 0.998),
        ("run_cache", "effective_hit_ratio", 0.949),
        ("config", "burst_rounds", 8.0),
        ("duplicate_burst", "leader_runs", 16.0),
        ("duplicate_burst", "bypass_runs", 0.0),
        ("stats", "final_queued", 0.0),
        ("request_ledger", "offered_qcm", 97665.0),
        ("request_ledger", "counted_qcm", 97665.0),
        ("request_ledger", "offered_runs", 1856.0),
        ("request_ledger", "counted_runs", 1856.0),
        ("frontend", "offered_qcm", 35696.0),
        ("frontend", "counted_qcm", 35696.0),
        ("frontend", "offered_runs", 1196.0),
        ("frontend", "counted_runs", 1196.0),
        ("frontend_queue", "count", 9.0),
        ("frontend_queue", "p99_us", 3071.0),
        ("admission_wait", "count", 9.0),
        ("admission_wait", "p99_us", 1023.0),
        ("cache_lookup", "count", 9.0),
        ("cache_lookup", "p99_us", 2.0),
        ("qcm_scan", "count", 9.0),
        ("qcm_scan", "p99_us", 23.0),
        ("qsm_scan", "count", 9.0),
        ("qsm_scan", "p99_us", 8191.0),
        ("shard_rtt", "count", 9.0),
        ("shard_rtt", "p99_us", 50.0),
        ("edge_merge", "count", 9.0),
        ("edge_merge", "p99_us", 1.0),
        ("end_to_end", "count", 9.0),
        ("end_to_end", "max_us", 56120.0),
        ("trace", "dropped", 0.0),
        ("trace", "hot_rps_sampled", 633376.0),
        ("trace", "hot_rps_untraced", 645239.0),
        ("exec", "spawns_avoided", 1040.0),
        ("exec", "tasks_run", 376.0),
        ("exec", "inline_runs", 664.0),
        ("exec", "panicked", 0.0),
        ("medium_smoke", "requests", 256.0),
        ("medium_smoke", "completed", 256.0),
        ("medium_smoke", "invalid", 0.0),
        ("medium_smoke", "fanout_total", 1024.0),
        ("frontend", "sessions", 2000.0),
        ("frontend", "workers", 8.0),
        ("frontend", "rejected_total", 0.0),
        ("frontend", "sessions_leaked", 0.0),
        ("frontend", "final_backlog", 0.0),
        ("frontend", "submitted", 50952.0),
        ("frontend", "completed", 50952.0),
        ("frontend", "answered_inline", 14068.0),
        ("frontend", "answered_by_worker", 36884.0),
        ("frontend", "hot_answered_inline", 32.0),
        ("frontend", "threads_peak", 18.0),
        ("frontend", "hot_threads_before", 18.0),
        ("frontend", "hot_threads_after", 18.0),
        ("frontend", "rss_peak_kb", 44608.0),
    ];
    const CLUSTER: Fixture = &[
        ("summary", "rejected_total", 0.0),
        ("summary", "merge_mismatches", 0.0),
        ("cluster", "rejected_after_retry", 0.0),
        ("cluster", "fanout_total", 1542.0),
        ("shard_rtt", "count", 1530.0),
        ("cluster", "hedges_fired", 12.0),
    ];
    const OVERLOAD: Fixture = &[
        ("overload", "goodput_floor_ratio", 0.91),
        ("overload", "past_saturation_goodput_rps", 833.1),
        ("overload", "peak_goodput_rps", 918.5),
        ("overload", "untyped_failures", 0.0),
        ("overload", "tier_mix_violations", 0.0),
        ("overload", "monotone_offered", 1.0),
    ];
    const WIRE: Fixture = &[
        ("summary", "rejected_total", 0.0),
        ("summary", "merge_mismatches", 0.0),
        ("kill_drill", "replica_killed", 1.0),
        ("kill_drill", "dead_probe_failed", 1.0),
        ("cluster", "wire_io_errors", 8.0),
        ("cluster", "rejected_after_retry", 0.0),
        ("cluster", "fanout_total", 1542.0),
        ("shard_rtt", "count", 1530.0),
        ("cluster", "hedges_fired", 12.0),
    ];
    const SNAPSHOT: Fixture = &[
        ("config", "shards", 2.0),
        ("config", "replicas", 2.0),
        ("bringup", "snapshot_loads", 4.0),
        ("bringup", "generate_fallbacks", 0.0),
        ("summary", "merge_mismatches", 0.0),
        ("summary", "rejected_total", 0.0),
        ("bringup", "max_child_data_us", 1840.0),
        ("bringup", "parent_generate_us", 3000.0),
        ("bringup", "parent_partition_us", 407.0),
    ];
    const PHASES: [(Fixture, GateTable, usize); 5] = [
        (SERVE, serve_gates, 36),
        (CLUSTER, cluster_gates, 4),
        (OVERLOAD, overload_gates, 4),
        (WIRE, wire_gates, 6),
        (SNAPSHOT, snapshot_gates, 4),
    ];

    /// The fixture as a hub, with row `doctored` left out (`None`) or set
    /// to another value.
    fn hub(fixture: Fixture, doctored: Option<(usize, Option<f64>)>) -> MetricsHub {
        let mut hub = MetricsHub::new();
        for (i, &(section, field, value)) in fixture.iter().enumerate() {
            match doctored {
                Some((at, None)) if at == i => {}
                Some((at, Some(other))) if at == i => {
                    hub.section(section).field(field, other);
                }
                _ => {
                    hub.section(section).field(field, value);
                }
            }
        }
        hub
    }

    fn failed(rows: &[Row]) -> Vec<&str> {
        rows.iter()
            .filter(|(_, pass, _)| !pass)
            .map(|(name, _, _)| name.as_str())
            .collect()
    }

    #[test]
    fn an_all_good_report_passes_every_gate() {
        for (fixture, gates, count) in PHASES {
            let rows = gates(&hub(fixture, None));
            assert_eq!(failed(&rows), Vec::<&str>::new());
            assert_eq!(rows.len(), count, "gates judged");
        }
    }

    #[test]
    fn a_report_missing_any_gated_field_fails() {
        for (fixture, gates, _) in PHASES {
            for (i, (section, field, _)) in fixture.iter().enumerate() {
                let rows = gates(&hub(fixture, Some((i, None))));
                assert!(
                    !failed(&rows).is_empty(),
                    "no gate noticed that {section}.{field} is missing"
                );
            }
        }
    }

    #[test]
    fn a_request_counted_twice_fails_the_ledger_and_only_the_ledger() {
        let at = SERVE
            .iter()
            .position(|row| (row.0, row.1) == ("request_ledger", "counted_qcm"))
            .unwrap();
        let rows = serve_gates(&hub(SERVE, Some((at, Some(97666.0)))));
        assert_eq!(failed(&rows), ["request_ledger ledger: qcm"]);
    }

    #[test]
    fn each_gate_fails_on_the_value_that_breaks_it() {
        type Doctoring = (&'static str, &'static str, f64, &'static str);
        let cases: [(Fixture, GateTable, &[Doctoring]); 5] = [
            (
                SERVE,
                serve_gates,
                &[
                    ("summary", "rejected_total", 1.0, "rejected_total"),
                    ("server", "open_sessions", 1.0, "sessions_leaked"),
                    (
                        "run_cache",
                        "effective_hit_ratio",
                        0.89,
                        "run_cache.effective_hit_ratio",
                    ),
                    (
                        "duplicate_burst",
                        "bypass_runs",
                        1.0,
                        "duplicate_burst scans",
                    ),
                    (
                        "server",
                        "qsm_degraded_runs",
                        1.0,
                        "server.qsm_degraded_runs",
                    ),
                    ("stats", "final_queued", 1.0, "stats.final_queued"),
                    ("frontend", "offered_runs", 1.0, "frontend ledger: runs"),
                    ("qsm_scan", "count", 0.0, "stages coverage"),
                    ("qsm_scan", "p99_us", 56121.0, "stages.qsm_scan.p99_us"),
                    ("trace", "dropped", 1.0, "trace.dropped"),
                    (
                        "trace",
                        "hot_rps_sampled",
                        500000.0,
                        "trace sampling overhead",
                    ),
                    ("exec", "spawns_avoided", 0.0, "exec.spawns_avoided"),
                    ("exec", "inline_runs", 663.0, "exec task accounting"),
                    ("exec", "panicked", 1.0, "exec.panicked"),
                    ("medium_smoke", "requests", 0.0, "medium_smoke ran"),
                    (
                        "medium_smoke",
                        "invalid",
                        1.0,
                        "medium_smoke.scatter completed",
                    ),
                    (
                        "medium_smoke",
                        "fanout_total",
                        768.0,
                        "medium_smoke.fanout_total",
                    ),
                    ("frontend", "workers", 9.0, "frontend.sessions/workers"),
                    ("frontend", "rejected_total", 1.0, "frontend.rejected_total"),
                    (
                        "frontend",
                        "sessions_leaked",
                        1.0,
                        "frontend.sessions_leaked",
                    ),
                    ("frontend", "final_backlog", 1.0, "frontend.final_backlog"),
                    ("frontend", "completed", 50951.0, "frontend.answered once"),
                    (
                        "frontend",
                        "answered_by_worker",
                        36885.0,
                        "frontend.answered once",
                    ),
                    (
                        "frontend",
                        "hot_answered_inline",
                        0.0,
                        "frontend.hot loop answers inline",
                    ),
                    ("frontend", "threads_peak", 49.0, "frontend.threads_peak"),
                    (
                        "frontend",
                        "hot_threads_after",
                        19.0,
                        "frontend.hot loop creates zero threads",
                    ),
                    (
                        "frontend",
                        "rss_peak_kb",
                        2_097_153.0,
                        "frontend.rss_peak_kb",
                    ),
                ],
            ),
            (
                CLUSTER,
                cluster_gates,
                &[
                    ("summary", "rejected_total", 1.0, "cluster rejected_total"),
                    (
                        "summary",
                        "merge_mismatches",
                        1.0,
                        "cluster merge_mismatches",
                    ),
                    (
                        "cluster",
                        "rejected_after_retry",
                        1.0,
                        "cluster rejected_after_retry",
                    ),
                    // The parent's reading: bound-join sub-queries counted
                    // once per shard per plan and observed never.
                    ("shard_rtt", "count", 312.0, "cluster shard-call ledger"),
                ],
            ),
            (
                OVERLOAD,
                overload_gates,
                &[
                    (
                        "overload",
                        "goodput_floor_ratio",
                        0.49,
                        "overload goodput_floor_ratio",
                    ),
                    (
                        "overload",
                        "untyped_failures",
                        1.0,
                        "overload untyped_failures",
                    ),
                    (
                        "overload",
                        "tier_mix_violations",
                        1.0,
                        "overload tier_mix_violations",
                    ),
                    (
                        "overload",
                        "monotone_offered",
                        0.0,
                        "overload monotone_offered",
                    ),
                ],
            ),
            (
                WIRE,
                wire_gates,
                &[
                    ("summary", "rejected_total", 1.0, "wire rejected_total"),
                    ("summary", "merge_mismatches", 1.0, "wire merge_mismatches"),
                    (
                        "kill_drill",
                        "dead_probe_failed",
                        0.0,
                        "wire replica kill drill",
                    ),
                    ("cluster", "wire_io_errors", 0.0, "wire io_errors observed"),
                    (
                        "cluster",
                        "rejected_after_retry",
                        1.0,
                        "wire rejected_after_retry",
                    ),
                    ("cluster", "fanout_total", 1541.0, "wire shard-call ledger"),
                ],
            ),
            (
                SNAPSHOT,
                snapshot_gates,
                &[
                    ("bringup", "generate_fallbacks", 1.0, "snapshot loads"),
                    (
                        "summary",
                        "merge_mismatches",
                        1.0,
                        "snapshot merge_mismatches",
                    ),
                    ("summary", "rejected_total", 1.0, "snapshot rejected_total"),
                    (
                        "bringup",
                        "max_child_data_us",
                        3407.0,
                        "snapshot bringup faster than regenerate",
                    ),
                ],
            ),
        ];
        for (fixture, gates, doctorings) in cases {
            for &(section, field, bad, gate) in doctorings {
                let at = fixture
                    .iter()
                    .position(|row| (row.0, row.1) == (section, field))
                    .unwrap();
                let rows = gates(&hub(fixture, Some((at, Some(bad)))));
                assert!(
                    failed(&rows).contains(&gate),
                    "{section}.{field} = {bad} should fail {gate:?}, failed: {:?}",
                    failed(&rows)
                );
            }
        }
    }
}

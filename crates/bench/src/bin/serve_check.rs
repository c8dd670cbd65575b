//! CI benchmark-regression gate for the serving tier.
//!
//! Runs the `serve_load` workload (via [`sapphire_bench::serve`], the same
//! code the `serve_load` binary runs) and **fails the build** — exit code 1
//! — instead of asking a human to eyeball the JSON, enforcing:
//!
//! * `rejected_total == 0` — the fixed-seed workload fits the default gate;
//!   any shedding is a regression in admission or a stall in the hot path.
//! * `sessions_leaked == 0` — every load-generator session closed.
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
//! * throughput ≥ 50% of the committed `BENCH_serve.json` baseline — loose
//!   enough for noisy shared CI runners, tight enough to catch a serializing
//!   lock or an accidental O(n) on the hot path.
//! * `qsm.p99_us` ≤ 2× the committed baseline — the QSM tail gate. The tail
//!   is dominated by Steiner expansion round trips; the shared
//!   `NeighborhoodCache` is what keeps it down, so a regression there (or a
//!   new serialization on the relax path) trips this before anyone eyeballs
//!   a latency chart. Same 2× posture as the throughput floor.
//! * `qsm_relax.degraded_runs == 0` — this is the default no-shed posture
//!   (`qsm_shed_budget` off), so *no* run may come back at a reduced budget
//!   tier; a nonzero count means degraded output leaked into a deployment
//!   that never opted in.
//! * request ledger — for the closed-loop server and the front-end's, QCM
//!   and runs *offered* by the harness equal those *counted* by the
//!   server's pre-gate: a request counted twice (or never) by the shared
//!   request path changes no answer, so only this gate sees it.
//! * threading model — the front-end fleet stays within a fixed
//!   thread/RSS budget, the closed-loop hot phase creates **zero** new
//!   threads (steady-state serving runs entirely on warm pools: front-end
//!   workers plus the shared scatter/scan executor), and the executor's
//!   task accounting balances (`tasks_run + inline_runs ==
//!   spawns_avoided`, zero panics) after the drain.
//! * overload smoke (a bounded open-loop sweep past saturation on a 2x2
//!   cluster; see [`sapphire_bench::overload`]) — graceful degradation
//!   holds: past-saturation goodput ≥ 50% of the sweep's peak, zero
//!   untyped failures, zero tier-keyed cache cross-contamination, and the
//!   offered-load sweep itself is monotone.
//! * wire smoke (the cluster workload over real loopback sockets with one
//!   replica crashed mid-run; see [`sapphire_bench::wire`]) — zero
//!   surviving rejections after bounded retry under replica loss, zero
//!   divergences from the in-process oracle, and the transport counters
//!   prove the crash was real (`wire_io_errors ≥ 1`, the dead replica
//!   refuses a direct probe).
//! * snapshot smoke (shard **processes** brought up from freshly written
//!   columnar snapshots at `tiny`; see [`sapphire_bench::wire`]) — every
//!   child actually loaded its snapshot (zero generate fallbacks), the
//!   snapshot-fed fleet is byte-identical to the generate-from-scratch
//!   oracle (zero mismatches), and the slowest snapshot load beat the
//!   parent's generate+partition time — the whole point of the format.
//!
//! Usage: `cargo run --release -p sapphire-bench --bin serve_check
//!         [--rounds 2] [--baseline BENCH_serve.json]`
//!
//! The committed baseline is read *before* the run and never rewritten here;
//! regenerating it after an intentional perf change is `serve_load`'s job.

use sapphire_bench::cluster::{self, ClusterLoadOptions};
use sapphire_bench::overload::{self, OverloadOptions};
use sapphire_bench::serve::{self, arg_string, arg_usize, json_f64, ServeLoadOptions};
use sapphire_bench::wire::{self, WireLoadOptions};

struct Gate {
    failures: u32,
}

impl Gate {
    fn check(&mut self, name: &str, pass: bool, detail: String) {
        if pass {
            eprintln!("PASS {name}: {detail}");
        } else {
            self.failures += 1;
            eprintln!("FAIL {name}: {detail}");
        }
    }
}

fn main() {
    let baseline_path = arg_string("--baseline").unwrap_or_else(|| "BENCH_serve.json".to_string());
    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!(
                "FAIL baseline: cannot read {baseline_path}: {e}\n\
                 (regenerate with `cargo run --release -p sapphire-bench --bin serve_load` \
                 and commit the result)"
            );
            std::process::exit(1);
        }
    };
    let baseline_rps = match json_f64(&baseline, None, "total_throughput_rps") {
        Some(v) if v > 0.0 => v,
        _ => {
            eprintln!("FAIL baseline: {baseline_path} has no total_throughput_rps");
            std::process::exit(1);
        }
    };

    let opts = ServeLoadOptions {
        rounds: arg_usize("--rounds", 2),
        // A relaxed queue deadline: the zero-rejection gate must catch real
        // admission regressions, not a noisy CI runner descheduling one
        // thread past the serving posture's 100ms for a moment.
        queue_wait_ms: 1_000,
        ..ServeLoadOptions::default()
    };
    let report = serve::run(&opts);
    println!("{report}");

    let num = |section: Option<&str>, key: &str| -> f64 {
        match json_f64(&report, section, key) {
            Some(v) => v,
            None => {
                eprintln!("FAIL report: missing field {key:?} (section {section:?})");
                std::process::exit(1);
            }
        }
    };

    let mut gate = Gate { failures: 0 };
    let rejected = num(None, "rejected_total");
    gate.check(
        "rejected_total",
        rejected == 0.0,
        format!("{rejected} (must be 0)"),
    );
    let leaked = num(None, "sessions_leaked");
    gate.check(
        "sessions_leaked",
        leaked == 0.0,
        format!("{leaked} (must be 0)"),
    );
    // The >90% floor gates the *effective* ratio — requests served without
    // a model scan, i.e. response-cache hits plus single-flight followers.
    // A follower logs a genuine cache miss (nothing was cached yet) but
    // costs no scan; counting it against the floor would make the gate
    // wobble with request overlap (scheduler noise), not with regressions.
    let completion_ratio = num(Some("completion_cache"), "effective_hit_ratio");
    gate.check(
        "completion_cache.effective_hit_ratio",
        completion_ratio >= 0.90,
        format!("{completion_ratio:.3} (floor 0.90)"),
    );
    let run_ratio = num(Some("run_cache"), "effective_hit_ratio");
    gate.check(
        "run_cache.effective_hit_ratio",
        run_ratio >= 0.90,
        format!("{run_ratio:.3} (floor 0.90)"),
    );
    // Single-flight contract: a burst of identical cold requests costs one
    // scan per request class per round (QCM + QSM), give or take nothing.
    // Bypass scans count too — a regression that made every duplicate
    // bypass (e.g. a broken waiter cap) must not pass on leader count alone.
    let burst_rounds = num(Some("config"), "burst_rounds");
    let burst_scans =
        num(Some("duplicate_burst"), "leader_runs") + num(Some("duplicate_burst"), "bypass_runs");
    gate.check(
        "duplicate_burst scans",
        burst_scans <= 2.0 * burst_rounds,
        format!(
            "{burst_scans} scans for {burst_rounds} burst rounds (cap {})",
            2.0 * burst_rounds
        ),
    );
    let rps = num(None, "total_throughput_rps");
    let floor = baseline_rps * 0.5;
    gate.check(
        "total_throughput_rps",
        rps >= floor,
        format!("{rps:.1} vs baseline {baseline_rps:.1} (floor {floor:.1})"),
    );
    // QSM tail gate: p99 within 2× of the committed baseline. (The baseline
    // itself is the post-NeighborhoodCache number; regenerate it with
    // serve_load after any intentional relax-path change.)
    let baseline_qsm_p99 = match json_f64(&baseline, Some("qsm"), "p99_us") {
        Some(v) if v > 0.0 => v,
        _ => {
            eprintln!(
                "FAIL baseline: {baseline_path} has no qsm.p99_us \
                 (regenerate with serve_load and commit the result)"
            );
            std::process::exit(1);
        }
    };
    let qsm_p99 = num(Some("qsm"), "p99_us");
    let p99_cap = baseline_qsm_p99 * 2.0;
    gate.check(
        "qsm.p99_us",
        qsm_p99 <= p99_cap,
        format!("{qsm_p99:.0}us vs baseline {baseline_qsm_p99:.0}us (cap {p99_cap:.0}us)"),
    );
    // Default posture never sheds: zero degraded-budget runs, full stop.
    let degraded_runs = num(Some("qsm_relax"), "degraded_runs");
    gate.check(
        "qsm_relax.degraded_runs",
        degraded_runs == 0.0,
        format!("{degraded_runs} (must be 0 with qsm_shed_budget off)"),
    );
    // Pressure drained: the load/occupancy stats section must end at zero —
    // a nonzero final queue would mean requests outlived the workload.
    let final_queued = num(Some("stats"), "final_queued");
    gate.check(
        "stats.final_queued",
        final_queued == 0.0,
        format!("{final_queued} (must be 0)"),
    );

    // --- Request ledger: offered == counted, per tier, for the closed-loop
    // server (top-level section) and the front-end's (nested in its
    // section). Both admission styles count in the server's one pre-gate.
    for section in ["request_ledger", "frontend"] {
        for tier in ["qcm", "runs"] {
            let offered = num(Some(section), &format!("offered_{tier}"));
            let counted = num(Some(section), &format!("counted_{tier}"));
            gate.check(
                &format!("{section} ledger: {tier}"),
                offered == counted && offered > 0.0,
                format!("{offered} offered, {counted} counted (must be equal)"),
            );
        }
    }

    // --- Observability gates: the shared `"stages"` section and tracing.
    //
    // Coverage: at least 8 named stages recorded observations, spanning the
    // front-end (frontend_queue), admission (admission_wait), server
    // (cache_lookup/qcm_scan/qsm_scan/steiner_relax/coalesce_wait), and
    // cluster (shard_rtt/edge_merge) tiers — a stage that silently stopped
    // recording is an instrumentation regression, not a tuning knob.
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
    let recorded: Vec<&str> = STAGES
        .iter()
        .copied()
        .filter(|s| json_f64(&report, Some(s), "count").is_some_and(|c| c >= 1.0))
        .collect();
    gate.check(
        "stages coverage",
        recorded.len() >= 8,
        format!("{} stages recorded: {recorded:?} (floor 8)", recorded.len()),
    );
    // Self-consistency: every stage nests inside some recorded end-to-end
    // request and percentiles report bucket ceilings clamped to the exact
    // max, so no stage's p99 can exceed the end-to-end max. A violation
    // means a stage timer leaked outside request scope (or a histogram
    // merged the wrong shard).
    let e2e_max = num(Some("end_to_end"), "max_us");
    for &stage in &recorded {
        // exec_queue also times the warm-up residual-bin scan tasks, which
        // run during model initialization — outside any request — so it is
        // exempt from the nests-inside-end_to_end invariant.
        if stage == "end_to_end" || stage == "exec_queue" {
            continue;
        }
        let p99 = num(Some(stage), "p99_us");
        gate.check(
            &format!("stages.{stage}.p99_us"),
            p99 <= e2e_max,
            format!("{p99:.0}us vs end_to_end max {e2e_max:.0}us"),
        );
    }
    // At the default sampling rate the flight-recorder ring must never
    // overflow — a dropped trace at rest means the recorder shrank or
    // something traces when it should not.
    let dropped = num(Some("trace"), "dropped");
    gate.check(
        "trace.dropped",
        dropped == 0.0,
        format!("{dropped} (must be 0 at default sampling)"),
    );
    // Tracing overhead: the same cache-hit hot loop, untraced vs sampled at
    // 1/64 in alternating chunks (both sides of the pair come from this
    // run, so runner speed cancels out). Sampled must keep ≥ 90%.
    let hot_untraced = num(Some("trace"), "hot_rps_untraced");
    let hot_sampled = num(Some("trace"), "hot_rps_sampled");
    gate.check(
        "trace sampling overhead",
        hot_sampled >= 0.9 * hot_untraced,
        format!(
            "{hot_sampled:.0} rps sampled (1/64) vs {hot_untraced:.0} rps untraced \
             (floor 90%, ratio {:.3})",
            hot_sampled / hot_untraced.max(1.0)
        ),
    );

    // --- Executor gate: the shared scatter/scan pool actually absorbed
    // the work that per-request thread spawns used to carry, and its
    // accounting is consistent — every task submitted (`spawns_avoided`)
    // was run exactly once, either by a worker (`tasks_run`) or inline by
    // a caller helping out (`inline_runs`). An imbalance after the full
    // drain would mean lost or duplicated tasks; zero panics is the
    // catch_unwind contract holding.
    let exec_spawns_avoided = num(Some("exec"), "spawns_avoided");
    gate.check(
        "exec.spawns_avoided",
        exec_spawns_avoided >= 1.0,
        format!("{exec_spawns_avoided} thread spawns avoided (must be >= 1)"),
    );
    let exec_tasks = num(Some("exec"), "tasks_run") + num(Some("exec"), "inline_runs");
    gate.check(
        "exec task accounting",
        exec_tasks == exec_spawns_avoided,
        format!(
            "{:.0} worker + {:.0} inline runs vs {exec_spawns_avoided} submitted \
             (must balance after drain)",
            num(Some("exec"), "tasks_run"),
            num(Some("exec"), "inline_runs"),
        ),
    );
    let exec_panicked = num(Some("exec"), "panicked");
    gate.check(
        "exec.panicked",
        exec_panicked == 0.0,
        format!("{exec_panicked} (must be 0)"),
    );

    // --- Medium smoke gate: the bigger-rung scatter baseline ran, it
    // completed every cold request, and every request really fanned out to
    // all 4 shards. Latencies are reported, not gated.
    let smoke_requests = num(Some("medium_smoke"), "requests");
    gate.check(
        "medium_smoke ran",
        smoke_requests >= 1.0,
        format!("{smoke_requests} requests (must be >= 1)"),
    );
    if smoke_requests >= 1.0 {
        let completed = num(Some("medium_smoke"), "completed");
        gate.check(
            "medium_smoke.scatter completed",
            completed == smoke_requests && num(Some("medium_smoke"), "invalid") == 0.0,
            format!("{completed}/{smoke_requests} cold scatters, 0 invalid"),
        );
        let fanout = num(Some("medium_smoke"), "fanout_total");
        gate.check(
            "medium_smoke.fanout_total",
            fanout == smoke_requests * 4.0,
            format!(
                "{fanout} (must be requests x 4 shards = {})",
                smoke_requests * 4.0
            ),
        );
    }

    // --- Front-end gate: thousands of idle sessions on a small pool.
    //
    // The report's "frontend" section ran 2,000+ open think-time sessions
    // on ≤ 8 worker threads over the same model. Enforced contracts: zero
    // rejections at think-time load, every session closed and every queue
    // drained, the process held a *fixed* thread/RSS budget (the
    // thread-per-session failure mode is exactly a thread count scaling
    // with sessions), and the closed-loop hot phase keeps at least half the
    // committed thread-per-request throughput.
    let f = |key: &str| num(Some("frontend"), key);
    gate.check(
        "frontend.sessions/workers",
        f("sessions") >= 2000.0 && f("workers") <= 8.0,
        format!("{} sessions on {} workers", f("sessions"), f("workers")),
    );
    gate.check(
        "frontend.rejected_total",
        f("rejected_total") == 0.0,
        format!("{} (must be 0)", f("rejected_total")),
    );
    gate.check(
        "frontend.sessions_leaked",
        f("sessions_leaked") == 0.0,
        format!("{} (must be 0)", f("sessions_leaked")),
    );
    gate.check(
        "frontend.final_backlog",
        f("final_backlog") == 0.0,
        format!("{} (must be 0)", f("final_backlog")),
    );
    let threads_peak = f("threads_peak");
    gate.check(
        "frontend.threads_peak",
        threads_peak <= 48.0,
        format!("{threads_peak} (budget 48; 0 = /proc unavailable)"),
    );
    // Steady-state serving must not create threads: the hot loop runs
    // after every pool (workers, reactor, shared executor) is warm, so the
    // process thread count sampled before and after it must match exactly.
    // This is the gate that keeps spawn-per-request from creeping back in.
    let hot_before = f("hot_threads_before");
    let hot_after = f("hot_threads_after");
    gate.check(
        "frontend.hot loop creates zero threads",
        hot_before == hot_after && (hot_before > 0.0 || cfg!(not(target_os = "linux"))),
        format!("{hot_before} threads before hot loop, {hot_after} after (must be equal)"),
    );
    let rss_peak = f("rss_peak_kb");
    gate.check(
        "frontend.rss_peak_kb",
        rss_peak <= 2_097_152.0,
        format!("{rss_peak} (budget 2 GiB; 0 = /proc unavailable)"),
    );
    let hot_rps = f("hot_throughput_rps");
    let hot_floor = baseline_rps * 0.5;
    gate.check(
        "frontend.hot_throughput_rps",
        hot_rps >= hot_floor,
        format!(
            "{hot_rps:.1} vs thread-per-request baseline {baseline_rps:.1} (floor {hot_floor:.1})"
        ),
    );

    // --- Cluster smoke gate: 2 shards x 2 replicas over the same workload.
    //
    // Enforces the sharded tier's three contracts: every request survives
    // routing (typed rejections are retried/failed over, so zero reach the
    // client), merges are deterministic (a cold second edge over the same
    // shards reproduces every byte), and the scatter overhead stays within
    // 60% of the committed single-server throughput.
    eprintln!("\n(cluster smoke gate: 2 shards x 2 replicas…)");
    let cluster_report = cluster::run(&ClusterLoadOptions::default());
    println!("{cluster_report}");
    let cnum = |section: Option<&str>, key: &str| -> f64 {
        match json_f64(&cluster_report, section, key) {
            Some(v) => v,
            None => {
                eprintln!("FAIL cluster report: missing field {key:?} (section {section:?})");
                std::process::exit(1);
            }
        }
    };
    let cluster_rejected = cnum(None, "rejected_total");
    gate.check(
        "cluster rejected_total",
        cluster_rejected == 0.0,
        format!("{cluster_rejected} rejections after bounded retry (must be 0)"),
    );
    let mismatches = cnum(None, "merge_mismatches");
    gate.check(
        "cluster merge_mismatches",
        mismatches == 0.0,
        format!("{mismatches} non-deterministic merges (must be 0)"),
    );
    let lost = cnum(Some("routing"), "rejected_after_retry");
    gate.check(
        "cluster rejected_after_retry",
        lost == 0.0,
        format!("{lost} requests exhausted the retry budget (must be 0)"),
    );
    let cluster_rps = cnum(None, "total_throughput_rps");
    let cluster_floor = baseline_rps * 0.4;
    gate.check(
        "cluster total_throughput_rps",
        cluster_rps >= cluster_floor,
        format!(
            "{cluster_rps:.1} vs single-server baseline {baseline_rps:.1} (floor {cluster_floor:.1})"
        ),
    );

    // --- Overload smoke gate: a bounded open-loop sweep past saturation
    // (2x2 cluster, short steps). Enforces graceful degradation: goodput at
    // the deepest offered load holds >= 50% of the sweep's peak, every
    // shed request fails *typed* (zero untyped failures), and tier-keyed
    // caches never leak a degraded payload into a tier-0 lookup.
    eprintln!("\n(overload smoke gate: open-loop sweep, 2 shards x 2 replicas…)");
    let overload_report = overload::run(&OverloadOptions::smoke());
    println!("{overload_report}");
    let onum = |key: &str| -> f64 {
        match json_f64(&overload_report, Some("overload"), key) {
            Some(v) => v,
            None => {
                eprintln!("FAIL overload report: missing field {key:?}");
                std::process::exit(1);
            }
        }
    };
    let floor_ratio = onum("goodput_floor_ratio");
    gate.check(
        "overload goodput_floor_ratio",
        floor_ratio >= 0.5,
        format!(
            "past-saturation goodput is {:.0}% of peak ({:.1} vs {:.1} rps; floor 50%)",
            floor_ratio * 100.0,
            onum("past_saturation_goodput_rps"),
            onum("peak_goodput_rps"),
        ),
    );
    let untyped = onum("untyped_failures");
    gate.check(
        "overload untyped_failures",
        untyped == 0.0,
        format!("{untyped} failures without a typed rejection (must be 0)"),
    );
    let tier_mix = onum("tier_mix_violations");
    gate.check(
        "overload tier_mix_violations",
        tier_mix == 0.0,
        format!(
            "{tier_mix} degraded payloads leaked into tier-0 lookups \
             (sample {}, must be 0)",
            onum("tier_mix_sample"),
        ),
    );
    let monotone = onum("monotone_offered");
    gate.check(
        "overload monotone_offered",
        monotone == 1.0,
        format!("offered-load sweep monotone flag = {monotone} (must be 1)"),
    );

    // --- Wire smoke gate: the cluster workload over real loopback sockets
    // (2 shards x 2 replicas behind WireServer/WireClient), with one replica
    // crashed mid-run. Enforces the transport's three contracts: the
    // router's bounded retry + failover absorbs the loss (zero requests
    // surface an error), the socket path reproduces the in-process oracle's
    // bytes, and the crash is real and *visible* — the dead replica refuses
    // a direct probe and the transport counters record the IO errors.
    eprintln!(
        "\n(wire smoke gate: 2 shards x 2 replicas over sockets, one replica killed mid-run…)"
    );
    let wire_report = wire::run(&WireLoadOptions::smoke());
    println!("{wire_report}");
    let wnum = |section: Option<&str>, key: &str| -> f64 {
        match json_f64(&wire_report, section, key) {
            Some(v) => v,
            None => {
                eprintln!("FAIL wire report: missing field {key:?} (section {section:?})");
                std::process::exit(1);
            }
        }
    };
    let wire_rejected = wnum(None, "rejected_total");
    gate.check(
        "wire rejected_total",
        wire_rejected == 0.0,
        format!("{wire_rejected} errors survived bounded retry under replica loss (must be 0)"),
    );
    let wire_mismatches = wnum(None, "merge_mismatches");
    gate.check(
        "wire merge_mismatches",
        wire_mismatches == 0.0,
        format!("{wire_mismatches} divergences from the in-process oracle (must be 0)"),
    );
    let killed = wnum(Some("transport"), "replica_killed");
    let probe_failed = wnum(Some("transport"), "dead_probe_failed");
    gate.check(
        "wire replica kill drill",
        killed == 1.0 && probe_failed == 1.0,
        format!(
            "replica_killed={killed} dead_probe_failed={probe_failed} (both must be 1: \
             the crash happened and the dead replica refuses direct calls)"
        ),
    );
    let wire_io_errors = wnum(Some("transport"), "wire_io_errors");
    gate.check(
        "wire io_errors observed",
        wire_io_errors >= 1.0,
        format!("{wire_io_errors} transport errors counted (must be >= 1 after a crash)"),
    );
    let wire_lost = wnum(Some("routing"), "rejected_after_retry");
    gate.check(
        "wire rejected_after_retry",
        wire_lost == 0.0,
        format!("{wire_lost} requests exhausted the retry budget (must be 0)"),
    );

    // --- Snapshot smoke gate: real `wire_shard` OS processes brought up
    // from per-shard columnar snapshots written moments earlier. Enforces
    // the snapshot format's contracts: every child loads its snapshot
    // (zero fallbacks to regenerate — a fallback means the bytes were
    // rejected), the snapshot-fed fleet answers byte-identically to the
    // in-process oracle built by generating from scratch, and the slowest
    // child's snapshot load is strictly faster than the parent's
    // generate+partition cost (the regenerate path every child would
    // otherwise pay).
    eprintln!("\n(snapshot smoke gate: shard processes from columnar snapshots at tiny…)");
    let snap_opts = WireLoadOptions::snapshot_smoke();
    let snap_report = wire::run(&snap_opts);
    println!("{snap_report}");
    let snum = |section: Option<&str>, key: &str| -> f64 {
        match json_f64(&snap_report, section, key) {
            Some(v) => v,
            None => {
                eprintln!("FAIL snapshot report: missing field {key:?} (section {section:?})");
                std::process::exit(1);
            }
        }
    };
    let snap_children = (snap_opts.shards * snap_opts.replicas) as f64;
    let snap_loads = snum(Some("bringup"), "snapshot_loads");
    let snap_fallbacks = snum(Some("bringup"), "generate_fallbacks");
    gate.check(
        "snapshot loads",
        snap_loads == snap_children && snap_fallbacks == 0.0,
        format!(
            "{snap_loads} of {snap_children} children loaded snapshots, \
             {snap_fallbacks} fell back to generate (must be all / 0)"
        ),
    );
    let snap_mismatches = snum(None, "merge_mismatches");
    gate.check(
        "snapshot merge_mismatches",
        snap_mismatches == 0.0,
        format!("{snap_mismatches} divergences from the generate-path oracle (must be 0)"),
    );
    let snap_rejected = snum(None, "rejected_total");
    gate.check(
        "snapshot rejected_total",
        snap_rejected == 0.0,
        format!("{snap_rejected} errors surfaced to clients (must be 0)"),
    );
    let regenerate_us =
        snum(Some("bringup"), "parent_generate_us") + snum(Some("bringup"), "parent_partition_us");
    let max_load_us = snum(Some("bringup"), "max_child_data_us");
    gate.check(
        "snapshot bringup faster than regenerate",
        max_load_us < regenerate_us,
        format!(
            "slowest child snapshot load {max_load_us:.0}µs vs parent \
             generate+partition {regenerate_us:.0}µs (must be strictly faster)"
        ),
    );

    if gate.failures > 0 {
        eprintln!("serve_check: {} gate(s) FAILED", gate.failures);
        std::process::exit(1);
    }
    eprintln!("serve_check: all gates passed");
}

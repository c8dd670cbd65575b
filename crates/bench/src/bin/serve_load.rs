//! Closed-loop load generator for the `sapphire-server` serving tier.
//!
//! Drives N concurrent simulated users against ONE shared `SapphireServer`
//! (one `Arc`'d graph + Predictive User Model — no per-session copies), then
//! a duplicate-burst phase where K users fire the *same* cold request at the
//! same instant (the single-flight coalescing showcase). Every mode prints
//! one JSON object — the run's [`MetricsHub`] — on stdout and writes no file.
//!
//! Usage: `cargo run --release -p sapphire-bench --bin serve_load
//!         [--users 32] [--rounds 3] [--scale tiny|small|medium]
//!         [--inflight N] [--queue N] [--burst-users 16] [--burst-rounds 8]`
//!         `[--smoke N]` sets the cold scatters per arm of the
//! `medium`-scale smoke phase (`0` skips it)
//!         `[--frontend-sessions N] [--frontend-workers N]
//!         [--cluster-shards N]` size the embedded front-end and cluster
//! scatter phases (`0` skips one)
//!
//! Tracing (default and `--cluster` modes): `--trace` samples every request
//! into the flight recorder (slowest traces dump to stderr after the run);
//! `--trace-sample N` picks a 1-in-N rate instead. Stage histograms are on
//! regardless.
//!
//! Front-end mode: `serve_load -- --frontend [--sessions 2000] [--workers 8]
//! [--think 100] [--hold 1500] [--hot-sessions 64] [--hot-rounds 200]` runs
//! ONLY the evented-front-end phase, at full scale (see
//! [`sapphire_bench::frontend`]).
//!
//! Cluster mode: `serve_load -- --cluster [--shards 2] [--replicas 2]
//! [--determinism-sample 8] [--wire [--processes [--snapshot]]
//! [--kill-replica]]` runs the same workload against a sharded topology
//! behind a `ClusterRouter` and replays a sample against a reference router
//! over the in-process replicas (see [`sapphire_bench::cluster`]). `--wire`
//! puts a real socket under every edge↔shard call, `--processes` a real OS
//! process per replica, `--snapshot` brings those processes up from
//! per-shard snapshots (it needs `--processes`), and `--kill-replica`
//! crashes one replica mid-run. A `--wire` run exits 1 when a request
//! surfaced an error, a merge diverged from the reference, or (with
//! `--snapshot`) a child fell back to regenerating.
//!
//! Overload mode: `serve_load -- --overload [--shards 2] [--replicas 2]
//! [--launchers 64] [--step-ms 2000] [--calibration 256] [--seed 42]
//! [--deadline-ms 250]` switches from closed-loop to an **open-loop**
//! Poisson arrival sweep past saturation (see [`sapphire_bench::overload`])
//! and reports the degradation curve.
//!
//! A flag the selected mode does not read, a flag without its value and a
//! value that does not parse each exit 2 naming the flag.
//!
//! The dataset seed and workload are fixed, so request *streams* are
//! reproducible; only latencies vary run to run. All load-shed requests
//! surface as typed errors and are counted, never panicked on.
//!
//! The workload itself lives in [`sapphire_bench::serve`] so the CI gate
//! (`serve_check`) runs exactly the same code.
//!

use std::time::Duration;

use sapphire_bench::args::Args;
use sapphire_bench::cluster::{self, ClusterLoadOptions, Transport};
use sapphire_bench::frontend::{self, FrontendPhaseOptions};
use sapphire_bench::overload::{self, OverloadOptions};
use sapphire_bench::serve::{self, ServeLoadOptions};
use sapphire_obs::MetricsHub;

/// What the command line selected.
#[derive(Debug)]
enum Mode {
    Overload(OverloadOptions),
    Frontend(FrontendPhaseOptions, String),
    Cluster(ClusterLoadOptions),
    Serve(ServeLoadOptions),
}

fn parse(mut args: Args) -> Result<Mode, String> {
    let mode = if args.switch("--overload") {
        let defaults = OverloadOptions::default();
        Mode::Overload(OverloadOptions {
            scale: args.string("--scale")?.unwrap_or(defaults.scale.clone()),
            shards: args.number("--shards", defaults.shards)?,
            replicas: args.number("--replicas", defaults.replicas)?,
            launchers: args.number("--launchers", defaults.launchers)?,
            step: Duration::from_millis(
                args.number("--step-ms", defaults.step.as_millis() as u64)?,
            ),
            calibration_requests: args.number("--calibration", defaults.calibration_requests)?,
            seed: args.number("--seed", defaults.seed)?,
            deadline: Duration::from_millis(
                args.number("--deadline-ms", defaults.deadline.as_millis() as u64)?,
            ),
            ..defaults
        })
    } else if args.switch("--frontend") {
        let defaults = FrontendPhaseOptions::default();
        let opts = FrontendPhaseOptions {
            sessions: args.number("--sessions", defaults.sessions)?,
            workers: args.number("--workers", defaults.workers)?,
            think_ms: args.number("--think", defaults.think_ms)?,
            hold_ms: args.number("--hold", defaults.hold_ms)?,
            hot_sessions: args.number("--hot-sessions", defaults.hot_sessions)?,
            hot_rounds: args.number("--hot-rounds", defaults.hot_rounds)?,
            queue_wait_ms: 0,
        };
        let scale = args
            .string("--scale")?
            .unwrap_or_else(|| "tiny".to_string());
        Mode::Frontend(opts, scale)
    } else if args.switch("--cluster") {
        let defaults = ClusterLoadOptions::default();
        // `--snapshot` is read only under `--processes`, and `--kill-replica`
        // only under `--wire`: anywhere else each is an unknown flag.
        let transport = if !args.switch("--wire") {
            Transport::InProcess
        } else if args.switch("--processes") {
            Transport::Processes {
                snapshot: args.switch("--snapshot"),
            }
        } else {
            Transport::Sockets
        };
        Mode::Cluster(ClusterLoadOptions {
            users: args.number("--users", defaults.users)?,
            rounds: args.number("--rounds", defaults.rounds)?,
            scale: args.string("--scale")?.unwrap_or(defaults.scale.clone()),
            shards: args.number("--shards", defaults.shards)?,
            replicas: args.number("--replicas", defaults.replicas)?,
            determinism_sample: args.number("--determinism-sample", defaults.determinism_sample)?,
            trace_sample: trace_sample(&mut args)?,
            transport,
            kill_replica: transport != Transport::InProcess && args.switch("--kill-replica"),
        })
    } else {
        let defaults = ServeLoadOptions::default();
        Mode::Serve(ServeLoadOptions {
            users: args.number("--users", defaults.users)?,
            rounds: args.number("--rounds", defaults.rounds)?,
            scale: args.string("--scale")?.unwrap_or(defaults.scale.clone()),
            max_in_flight: args.number("--inflight", 0)?,
            max_queue_depth: args.number("--queue", 0)?,
            burst_users: args.number("--burst-users", defaults.burst_users)?,
            burst_rounds: args.number("--burst-rounds", defaults.burst_rounds)?,
            queue_wait_ms: 0,
            frontend_sessions: args.number("--frontend-sessions", defaults.frontend_sessions)?,
            frontend_workers: args.number("--frontend-workers", defaults.frontend_workers)?,
            trace_sample: trace_sample(&mut args)?,
            cluster_shards: args.number("--cluster-shards", defaults.cluster_shards)?,
            medium_smoke_requests: args.number("--smoke", defaults.medium_smoke_requests)?,
        })
    };
    args.finish()?;
    Ok(mode)
}

/// `--trace` (every request) or `--trace-sample N` (one in N); `0` is off.
fn trace_sample(args: &mut Args) -> Result<u32, String> {
    let default = u32::from(args.switch("--trace"));
    args.number("--trace-sample", default)
}

fn main() {
    let mode = parse(Args::from_env()).unwrap_or_else(|e| {
        eprintln!("serve_load: {e}");
        std::process::exit(2);
    });
    let hub = match &mode {
        Mode::Overload(opts) => overload::run(opts),
        Mode::Frontend(opts, scale) => frontend::run(opts, scale),
        Mode::Cluster(opts) => cluster::run(opts),
        Mode::Serve(opts) => serve::run(opts),
    };
    println!("{}", hub.to_json());
    if let Mode::Cluster(opts) = &mode {
        if opts.transport != Transport::InProcess {
            let snapshot = opts.transport == (Transport::Processes { snapshot: true });
            let nonzero = wire_failures(&hub, snapshot);
            if !nonzero.is_empty() {
                eprintln!("serve_load: must be 0 but is not: {nonzero:?}");
                std::process::exit(1);
            }
        }
    }
}

/// The `(section, field)` counts a wire-mode run must end with at zero and
/// did not (a count the report lacks is not zero).
fn wire_failures(hub: &MetricsHub, snapshot: bool) -> Vec<(&'static str, &'static str)> {
    let mut must_be_zero = vec![
        ("summary", "rejected_total"),
        ("summary", "merge_mismatches"),
    ];
    if snapshot {
        must_be_zero.push(("bringup", "generate_fallbacks"));
    }
    must_be_zero.retain(|(section, field)| hub.get_f64(section, field) != Some(0.0));
    must_be_zero
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_misspelt_drill_flag_is_an_error_not_a_run_without_the_drill() {
        let err = parse(Args::new([
            "--cluster",
            "--wire",
            "--processes",
            "--kill-replicas",
        ]))
        .unwrap_err();
        assert_eq!(err, "unrecognised argument --kill-replicas");
    }

    #[test]
    fn a_snapshot_without_processes_is_an_error() {
        let err = parse(Args::new(["--cluster", "--wire", "--snapshot"])).unwrap_err();
        assert_eq!(err, "unrecognised argument --snapshot");
        match parse(Args::new([
            "--cluster",
            "--wire",
            "--processes",
            "--snapshot",
        ])) {
            Ok(Mode::Cluster(opts)) => {
                assert_eq!(opts.transport, Transport::Processes { snapshot: true })
            }
            other => panic!("expected cluster mode, got {other:?}"),
        }
    }

    #[test]
    fn a_flag_of_another_mode_is_an_error() {
        let err = parse(Args::new(["--overload", "--users", "4"])).unwrap_err();
        assert_eq!(err, "unrecognised argument --users");
    }

    #[test]
    fn a_wire_run_fails_on_a_nonzero_or_absent_count() {
        let mut hub = MetricsHub::new();
        hub.section("summary")
            .field("rejected_total", 0u64)
            .field("merge_mismatches", 0u64);
        hub.section("bringup").field("generate_fallbacks", 4u64);
        assert!(wire_failures(&hub, false).is_empty());
        assert_eq!(
            wire_failures(&hub, true),
            [("bringup", "generate_fallbacks")]
        );
        hub.section("summary").field("merge_mismatches", 1u64);
        assert_eq!(
            wire_failures(&hub, false),
            [("summary", "merge_mismatches")]
        );
        assert_eq!(wire_failures(&MetricsHub::new(), false).len(), 2);
    }

    #[test]
    fn each_mode_reads_its_own_flags() {
        match parse(Args::new([
            "--cluster",
            "--wire",
            "--kill-replica",
            "--users",
            "3",
        ])) {
            Ok(Mode::Cluster(opts)) => {
                assert!(opts.kill_replica && opts.transport == Transport::Sockets);
                assert_eq!(opts.users, 3);
            }
            other => panic!("expected wire mode, got {other:?}"),
        }
        match parse(Args::new(["--trace", "--rounds", "1"])) {
            Ok(Mode::Serve(opts)) => assert_eq!((opts.trace_sample, opts.rounds), (1, 1)),
            other => panic!("expected the default mode, got {other:?}"),
        }
    }
}

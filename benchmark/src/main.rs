//! The Sapphire benchmark: four workloads through the system's public front
//! doors, seven end-to-end metrics per workload, and — in a separate traced
//! run — the per-layer ledger. See `benchmark/README.md`.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark --smoke            every workload on its small dataset, 2 passes each
//! benchmark --calibrate        N whole runs per workload, spread tables
//! benchmark --print-manifest   BENCHMARK.json, from the metric tables
//! ```
//!
//! The last line of standard output is the result object the driver reads;
//! everything for humans goes to standard error and to `benchmark/out/`.

mod calibrate;
mod drive;
mod fixture;
mod json;
mod ledger;
mod manifest;
mod oracle;
mod pool;
mod procfs;
mod run;
mod stats;

use std::process::ExitCode;

use fixture::SHARD_CHILD_FLAG;
use run::{Length, Options, Workload};

/// Exit codes: 0 = result printed; 1 = the run itself failed a guard (it
/// measured something other than its name says); 2 = bad usage.
const EXIT_GUARD: u8 = 1;
const EXIT_USAGE: u8 = 2;

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn usage(problem: &str) -> ExitCode {
    eprintln!(
        "{problem}\nusage: benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         benchmark --smoke | --calibrate [--runs n] [--workload <name>] | --print-manifest",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(EXIT_USAGE)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == SHARD_CHILD_FLAG) {
        return match fixture::shard_child_main(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(EXIT_GUARD)
            }
        };
    }
    if args.iter().any(|a| a == "--print-manifest") {
        print!("{}", manifest::manifest_text());
        return ExitCode::SUCCESS;
    }
    if args.iter().any(|a| a == "--smoke") {
        return calibrate::smoke();
    }
    if args.iter().any(|a| a == "--calibrate") {
        let runs = flag_value(&args, "--runs")
            .and_then(|v| v.parse().ok())
            .unwrap_or(6);
        let seconds = flag_value(&args, "--seconds")
            .and_then(|v| v.parse().ok())
            .unwrap_or(f64::from(manifest::RUN_SECONDS));
        let only = flag_value(&args, "--workload").and_then(Workload::named);
        return calibrate::calibrate(runs, seconds, only);
    }

    let Some(workload) = flag_value(&args, "--workload").and_then(Workload::named) else {
        return usage("missing or unknown --workload");
    };
    let Some(seed) = flag_value(&args, "--seed").and_then(|v| v.parse::<u64>().ok()) else {
        return usage("missing or malformed --seed");
    };
    let Some(seconds) = flag_value(&args, "--seconds")
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|s| *s > 0.0 && *s <= 600.0)
    else {
        return usage("missing or malformed --seconds");
    };
    let traced = match flag_value(&args, "--trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(_) => return usage("--trace takes 0 or 1"),
    };

    let options = Options {
        workload,
        seed,
        length: Length::Seconds(seconds),
        traced,
        smoke: false,
    };
    match run::run(&options) {
        Ok(report) => {
            calibrate::save_report(workload, traced, &report);
            println!("{}", report.result_line());
            ExitCode::SUCCESS
        }
        Err(run::GuardFailure(why)) => {
            eprintln!("[{}] run rejected: {why}", workload.name());
            ExitCode::from(EXIT_GUARD)
        }
    }
}

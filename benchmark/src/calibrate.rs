//! The runs around a run: the developer's smoke test, and the calibration
//! that says how far two sets of runs of the *same* code disagree — the
//! number every bound in `BENCHMARK.json` has to stay above.

use std::process::{Command, ExitCode};

use crate::fixture::out_dir;
use crate::json::{self, Json};
use crate::manifest::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::run::{self, Length, Options, RunReport, Workload};
use crate::stats::{iqr_share, median, worst_split_disagreement};

/// Keep a run's full report next to the traces.
pub fn save_report(workload: Workload, traced: bool, report: &RunReport) {
    let name = format!(
        "report-{}{}.json",
        workload.name(),
        if traced { "-trace" } else { "" }
    );
    let doc = Json::obj([
        (
            "result",
            json::parse(&report.result_line()).expect("own rendering"),
        ),
        ("detail", report.detail.clone()),
    ]);
    let saved = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(out_dir().join(&name), doc.render()));
    if let Err(e) = saved {
        eprintln!("cannot save {name}: {e}");
    }
}

/// Every workload on its small dataset, two passes, one set-up, untraced
/// and traced: checks that each run reports exactly the manifest's names,
/// answers correctly and fails nothing. What a developer runs before
/// pushing.
pub fn smoke() -> ExitCode {
    let started = std::time::Instant::now();
    let mut ok = true;
    for workload in Workload::ALL {
        for traced in [false, true] {
            let options = Options {
                workload,
                seed: 1,
                length: Length::Passes(2),
                traced,
                smoke: true,
            };
            let expected: Vec<&str> = if traced { PER_LAYER } else { END_TO_END }
                .iter()
                .map(|m| m.name)
                .collect();
            match run::run(&options) {
                Ok(report) => {
                    let names: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
                    let reparsed = json::parse(&report.result_line());
                    let fine = names == expected
                        && report.correct
                        && report.failed == 0
                        && report.attempted > 0
                        && reparsed.is_ok();
                    eprintln!(
                        "smoke {} trace={}: {} ({} requests, {} failed, correct={})",
                        workload.name(),
                        u8::from(traced),
                        if fine { "ok" } else { "FAILED" },
                        report.attempted,
                        report.failed,
                        report.correct
                    );
                    ok &= fine;
                }
                Err(run::GuardFailure(why)) => {
                    eprintln!(
                        "smoke {} trace={}: FAILED: {why}",
                        workload.name(),
                        u8::from(traced)
                    );
                    ok = false;
                }
            }
        }
    }
    eprintln!(
        "smoke finished in {:.1} s on the small datasets: these numbers are NOT comparable with full runs",
        started.elapsed().as_secs_f64()
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run the whole benchmark `runs` times (a fresh process and a fresh seed
/// each) and print, per metric × workload: the median, the quartile spread
/// the acceptance check computes, and the worst disagreement between the
/// medians of two halves over every half-and-half split of the runs. The
/// workloads `BENCHMARK.json` names are held to its bounds; the others are
/// calibrated all the same, to show why they are not in it.
pub fn calibrate(runs: usize, seconds: f64, only: Option<Workload>) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("| workload | metric | median | IQR / median | worst half-split | bound |");
    println!("|---|---|---|---|---|---|");
    let mut within = true;
    for workload in Workload::ALL
        .into_iter()
        .filter(|w| only.is_none_or(|o| o == *w))
    {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for seed in 1..=runs as u64 {
            let output = Command::new(&exe)
                .args(["--workload", workload.name()])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", "0"])
                .output();
            let line = match output {
                Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout)
                    .lines()
                    .last()
                    .unwrap_or_default()
                    .to_string(),
                Ok(out) => {
                    eprintln!(
                        "{} seed {seed} exited with {}:\n{}",
                        workload.name(),
                        out.status,
                        String::from_utf8_lossy(&out.stderr)
                    );
                    return ExitCode::FAILURE;
                }
                Err(e) => {
                    eprintln!("cannot run {}: {e}", exe.display());
                    return ExitCode::FAILURE;
                }
            };
            let Ok(result) = json::parse(&line) else {
                eprintln!(
                    "{} seed {seed}: unreadable result line {line:?}",
                    workload.name()
                );
                return ExitCode::FAILURE;
            };
            if result.get("correct").and_then(Json::as_bool) != Some(true) {
                eprintln!("{} seed {seed}: not correct: {line}", workload.name());
                return ExitCode::FAILURE;
            }
            for (slot, def) in values.iter_mut().zip(END_TO_END) {
                match result
                    .path(&["metrics", def.name, "value"])
                    .and_then(Json::as_f64)
                {
                    Some(v) => slot.push(v),
                    None => {
                        eprintln!("{} seed {seed}: no {}", workload.name(), def.name);
                        return ExitCode::FAILURE;
                    }
                }
            }
            eprintln!("calibrate: {} seed {seed} done", workload.name());
        }
        let gates = WORKLOADS.iter().any(|(name, _)| *name == workload.name());
        for (slot, def) in values.iter().zip(END_TO_END) {
            eprintln!("calibrate: {} {} {slot:?}", workload.name(), def.name);
            let spread = iqr_share(slot);
            let split = worst_split_disagreement(slot);
            // `setup_s` is exempt from the spread rule, not from the split.
            let ok = split <= def.bound && (def.name == "setup_s" || spread <= def.bound);
            within &= ok || !gates;
            println!(
                "| {} | {} | {:.4} | {:.2}% | {:.2}% | {} |",
                workload.name(),
                def.name,
                median(slot),
                spread * 100.0,
                split * 100.0,
                match (gates, ok) {
                    (false, _) => "not gated".to_string(),
                    (true, true) => format!("{:.0}%", def.bound * 100.0),
                    (true, false) => format!("{:.0}% **exceeded**", def.bound * 100.0),
                }
            );
        }
    }
    if within {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

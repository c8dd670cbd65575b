//! Regenerates **Figures 8–11** (the §7.1 user study) and the §7.3.2 QSM
//! usage breakdown, with 16 simulated participants (see ARCHITECTURE.md,
//! "Substitutions", for the human-participant substitution).
//!
//! Usage: `cargo run -p sapphire-bench --bin user_study --release [--scale tiny|small|medium]`

use sapphire_baselines::ComparisonHarness;
use sapphire_bench::{bar, experiment_config, heading, scale_from_args};
use sapphire_datagen::userstudy::{run_study, StudyConfig};
use sapphire_datagen::workload::{appendix_b, gold_answers, Difficulty};

fn main() {
    let dataset = scale_from_args();
    println!("(building harness: dataset + initialization + QAKiS…)");
    let harness = ComparisonHarness::build(dataset, experiment_config());
    let questions = appendix_b();
    let config = StudyConfig::default();
    let endpoint = harness.endpoint.clone();
    let gold = |q: &sapphire_datagen::workload::Question| gold_answers(q, endpoint.as_ref());

    let (sapphire, qakis) = run_study(&harness.pum, &harness.qakis, &questions, &gold, &config);

    let difficulties = [Difficulty::Easy, Difficulty::Medium, Difficulty::Difficult];

    println!(
        "{}",
        heading("Figure 8 — Success rate of answering questions (%)")
    );
    for d in difficulties {
        println!(
            "{}",
            bar(&format!("{d} / QAKiS"), qakis.success_rate(d), 100.0, 40)
        );
        println!(
            "{}   (95% CI ±{:.1})",
            bar(
                &format!("{d} / Sapphire"),
                sapphire.success_rate(d),
                100.0,
                40
            ),
            sapphire.success_ci(d, config.participants)
        );
    }

    println!(
        "{}",
        heading("Figure 9 — % of questions answered by ≥1 participant")
    );
    for d in difficulties {
        println!(
            "{}",
            bar(
                &format!("{d} / QAKiS"),
                qakis.pct_answered_by_any(d),
                100.0,
                40
            )
        );
        println!(
            "{}",
            bar(
                &format!("{d} / Sapphire"),
                sapphire.pct_answered_by_any(d),
                100.0,
                40
            )
        );
    }

    println!(
        "{}",
        heading("Figure 10 — Average number of attempts before finding an answer")
    );
    for d in difficulties {
        println!(
            "{}",
            bar(&format!("{d} / QAKiS"), qakis.avg_attempts(d), 6.0, 40)
        );
        println!(
            "{}",
            bar(
                &format!("{d} / Sapphire"),
                sapphire.avg_attempts(d),
                6.0,
                40
            )
        );
    }

    println!(
        "{}",
        heading("Figure 11 — Average time spent on answered questions (minutes)")
    );
    for d in difficulties {
        println!(
            "{}",
            bar(&format!("{d} / QAKiS"), qakis.avg_time_minutes(d), 7.0, 40)
        );
        println!(
            "{}",
            bar(
                &format!("{d} / Sapphire"),
                sapphire.avg_time_minutes(d),
                7.0,
                40
            )
        );
    }

    let (pred, lit, relax, any) = sapphire.suggestion_usage();
    println!(
        "{}",
        heading("§7.3.2 — QSM suggestion usage (fraction of questions, %)")
    );
    println!("alternative predicates: {pred:.0}%   (paper: 28%)");
    println!("alternative literals:   {lit:.0}%   (paper: 17%)");
    println!("relaxed structure:      {relax:.0}%   (paper: 67%)");
    println!("any suggestion:         {any:.0}%   (paper: >90%)");

    println!("{}", heading("shape checks"));
    let med_gap =
        sapphire.success_rate(Difficulty::Medium) - qakis.success_rate(Difficulty::Medium);
    let diff_gap =
        sapphire.success_rate(Difficulty::Difficult) - qakis.success_rate(Difficulty::Difficult);
    let easy_gap = sapphire.success_rate(Difficulty::Easy) - qakis.success_rate(Difficulty::Easy);
    println!("  medium gap (Sapphire − QAKiS):    {med_gap:+.1} pp (paper: ≈ +30)");
    println!("  difficult gap (Sapphire − QAKiS): {diff_gap:+.1} pp (paper: ≈ +45, widest)");
    println!(
        "  gap widens with difficulty:       {}",
        diff_gap >= med_gap && med_gap > easy_gap - 10.0
    );
    let time_ok = difficulties
        .iter()
        .all(|&d| sapphire.avg_time_minutes(d) >= qakis.avg_time_minutes(d));
    println!("  Sapphire costs more time (Fig 11): {time_ok}");
    println!(
        "  every question answered by someone with Sapphire (Fig 9): {}",
        difficulties
            .iter()
            .all(|&d| sapphire.pct_answered_by_any(d) >= 99.9)
    );
}

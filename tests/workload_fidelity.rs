//! The evaluation workload must stay faithful to the paper's setup: gold
//! queries answerable, scripts executable through the real session, and the
//! baselines exhibiting their characteristic capability classes.

use sapphire_baselines::ComparisonHarness;
use sapphire_core::session::{Modifiers, Session};
use sapphire_core::SapphireConfig;
use sapphire_datagen::workload::{appendix_b, gold_answers, grade, Difficulty, Grade};
use sapphire_datagen::DatasetConfig;

fn harness() -> ComparisonHarness {
    ComparisonHarness::build(
        DatasetConfig::tiny(42),
        SapphireConfig {
            processes: 2,
            suffix_tree_capacity: 2_000,
            ..SapphireConfig::for_tests()
        },
    )
}

#[test]
fn every_ideal_script_reaches_gold_through_sapphire() {
    let h = harness();
    let mut failures = Vec::new();
    for q in appendix_b() {
        let gold = gold_answers(&q, h.endpoint.as_ref());
        let mut session = Session::new(&h.pum);
        for (i, row) in q.script.rows.iter().enumerate() {
            session.set_row(i, row.clone());
        }
        session.modifiers = Modifiers {
            distinct: true,
            ..q.script.modifiers()
        };
        match session.run() {
            Ok(result) => {
                let g = grade(result.answers.solutions(), &gold);
                if g != Grade::Correct {
                    failures.push(format!("{}: graded {:?}", q.id, g));
                }
            }
            Err(e) => failures.push(format!("{}: session error {e}", q.id)),
        }
    }
    assert!(failures.is_empty(), "scripts failing: {failures:#?}");
}

#[test]
fn difficulty_classes_separate_qakis_performance() {
    let h = harness();
    let questions = appendix_b();
    let mut correct_by_difficulty = std::collections::HashMap::new();
    let mut total_by_difficulty = std::collections::HashMap::new();
    for q in &questions {
        let gold = gold_answers(q, h.endpoint.as_ref());
        let mut best = Grade::Wrong;
        for p in q.paraphrases.iter().take(3) {
            let g = grade(
                &sapphire_datagen::userstudy::NlQaSystem::answer(&h.qakis, p),
                &gold,
            );
            if matches!(
                (g, best),
                (Grade::Correct, _) | (Grade::Partial, Grade::Wrong)
            ) {
                best = g;
            }
        }
        *total_by_difficulty.entry(q.difficulty).or_insert(0usize) += 1;
        if best == Grade::Correct {
            *correct_by_difficulty.entry(q.difficulty).or_insert(0usize) += 1;
        }
    }
    let rate = |d: Difficulty| {
        *correct_by_difficulty.get(&d).unwrap_or(&0) as f64
            / *total_by_difficulty.get(&d).unwrap_or(&1) as f64
    };
    // Figure 8's driver: QAKiS handles easy questions decently and collapses
    // on the difficult category.
    assert!(
        rate(Difficulty::Easy) >= 0.5,
        "easy {}",
        rate(Difficulty::Easy)
    );
    assert!(
        rate(Difficulty::Difficult) <= 0.35,
        "difficult {}",
        rate(Difficulty::Difficult)
    );
    assert!(rate(Difficulty::Easy) > rate(Difficulty::Difficult));
}

#[test]
fn gold_answer_sets_are_stable_across_harness_rebuilds() {
    let h1 = harness();
    let h2 = harness();
    for q in appendix_b() {
        assert_eq!(
            gold_answers(&q, h1.endpoint.as_ref()),
            gold_answers(&q, h2.endpoint.as_ref()),
            "nondeterministic gold for {}",
            q.id
        );
    }
}

#[test]
fn flattened_scripts_break_direct_execution_where_expected() {
    let h = harness();
    // D3 is the Figure 6 question: flattening must make the direct query
    // return nothing, setting up the relaxation.
    let d3 = appendix_b().into_iter().find(|q| q.id == "D3").unwrap();
    let flat = sapphire_datagen::userstudy::flatten(&d3.script).unwrap();
    let mut session = Session::new(&h.pum);
    for (i, row) in flat.rows.iter().enumerate() {
        session.set_row(i, row.clone());
    }
    let result = session.run().unwrap();
    assert_eq!(result.answers.total_rows(), 0);
    // …and the QSM must rescue it.
    let gold = gold_answers(&d3, h.endpoint.as_ref());
    let rescued = result
        .suggestions
        .relaxations
        .iter()
        .any(|r| grade(&r.answers, &gold) == Grade::Correct);
    assert!(rescued, "relaxation rescues the flattened D3");
}

//! The simulated user study (§7.1, Figures 8–11).
//!
//! The paper's study put 16 human participants (CS background, no RDF/SPARQL
//! experience) in front of Sapphire and QAKiS. Humans are the one component
//! we cannot ship, so this module substitutes a *stochastic participant
//! model* that drives the **real** Sapphire pipeline (session → QCM → run →
//! QSM → accept suggestion): each participant knows only the question's
//! keywords, makes difficulty- and skill-dependent mistakes (misspelled
//! literals, paraphrased predicates, flattened structure), and relies on
//! Sapphire's suggestions — or gives up after a few attempts, like the
//! paper's participants did (3–5 attempts).
//!
//! Time is modeled with fixed per-interaction costs (type a term, click Run,
//! read suggestions, …), making Figure 11's *shape* reproducible without
//! wall-clock humans.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sapphire_core::pum::PredictiveUserModel;
use sapphire_core::session::{Modifiers, Session};
use sapphire_sparql::Solutions;

use crate::workload::{grade, Difficulty, Grade, Question, SessionScript};

/// A natural-language QA system, as seen by the study harness (QAKiS in the
/// paper; implemented in `sapphire-baselines`).
pub trait NlQaSystem {
    /// System name.
    fn name(&self) -> &str;
    /// Answer a natural-language question; empty solutions = no answer.
    fn answer(&self, question: &str) -> Solutions;
}

/// Interaction-cost model (seconds per action).
#[derive(Debug, Clone, Copy)]
pub struct TimeModel {
    /// Type a term into a box and browse QCM completions.
    pub type_term: f64,
    /// Click Run, wait, scan the answer table.
    pub run: f64,
    /// Read through the QSM's suggestions.
    pub review_suggestions: f64,
    /// Accept a suggestion (answers are prefetched).
    pub accept_suggestion: f64,
    /// Diagnose and manually fix a mistake.
    pub manual_fix: f64,
    /// Add a modifier (filter/order/limit).
    pub modifier: f64,
    /// Type a natural-language question into a QA system.
    pub nl_type: f64,
    /// Read a QA system's answer.
    pub nl_read: f64,
}

impl Default for TimeModel {
    fn default() -> Self {
        TimeModel {
            type_term: 6.0,
            run: 4.0,
            review_suggestions: 10.0,
            accept_suggestion: 3.0,
            manual_fix: 8.0,
            modifier: 6.0,
            nl_type: 15.0,
            nl_read: 6.0,
        }
    }
}

/// Study parameters (defaults = the paper's setup).
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// RNG seed.
    pub seed: u64,
    /// Number of participants (16 in the paper).
    pub participants: usize,
    /// Questions per participant per difficulty (4 easy, 3 medium,
    /// 3 difficult in the paper; the first easy one is a dropped warm-up).
    pub easy_per: usize,
    /// See [`easy_per`](Self::easy_per).
    pub medium_per: usize,
    /// See [`easy_per`](Self::easy_per).
    pub difficult_per: usize,
    /// Interaction costs.
    pub time: TimeModel,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            seed: 0x5A99,
            participants: 16,
            easy_per: 4,
            medium_per: 3,
            difficult_per: 3,
            time: TimeModel::default(),
        }
    }
}

/// One participant × question measurement.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Question id.
    pub question_id: String,
    /// Participant index.
    pub participant: usize,
    /// Difficulty class.
    pub difficulty: Difficulty,
    /// Final grade against the gold answers.
    pub grade: Grade,
    /// Number of Run clicks.
    pub attempts: u32,
    /// Modeled time spent (seconds).
    pub time_seconds: f64,
    /// The participant accepted an alternative-predicate suggestion.
    pub used_alt_predicate: bool,
    /// The participant accepted an alternative-literal suggestion.
    pub used_alt_literal: bool,
    /// The participant accepted a structure relaxation.
    pub used_relaxation: bool,
}

impl Outcome {
    /// Success = fully correct.
    pub fn success(&self) -> bool {
        self.grade == Grade::Correct
    }

    /// Did the participant use any QSM suggestion?
    pub fn used_any_suggestion(&self) -> bool {
        self.used_alt_predicate || self.used_alt_literal || self.used_relaxation
    }
}

/// The full study result for one system.
#[derive(Debug, Clone, Default)]
pub struct SystemResults {
    /// System name.
    pub system: String,
    /// All outcomes (warm-ups already dropped).
    pub outcomes: Vec<Outcome>,
}

impl SystemResults {
    /// Success rate (%) for a difficulty, averaged over outcomes (Figure 8).
    pub fn success_rate(&self, d: Difficulty) -> f64 {
        let of_d: Vec<&Outcome> = self.outcomes.iter().filter(|o| o.difficulty == d).collect();
        if of_d.is_empty() {
            return 0.0;
        }
        100.0 * of_d.iter().filter(|o| o.success()).count() as f64 / of_d.len() as f64
    }

    /// 95% confidence interval half-width for the per-participant success
    /// rates at a difficulty (the error bars of Figure 8).
    pub fn success_ci(&self, d: Difficulty, participants: usize) -> f64 {
        let mut rates = Vec::new();
        for p in 0..participants {
            let of: Vec<&Outcome> = self
                .outcomes
                .iter()
                .filter(|o| o.participant == p && o.difficulty == d)
                .collect();
            if !of.is_empty() {
                rates.push(
                    100.0 * of.iter().filter(|o| o.success()).count() as f64 / of.len() as f64,
                );
            }
        }
        if rates.len() < 2 {
            return 0.0;
        }
        let mean = rates.iter().sum::<f64>() / rates.len() as f64;
        let var =
            rates.iter().map(|r| (r - mean) * (r - mean)).sum::<f64>() / (rates.len() - 1) as f64;
        1.96 * (var / rates.len() as f64).sqrt()
    }

    /// Percentage of distinct questions answered by ≥1 participant (Figure 9).
    pub fn pct_answered_by_any(&self, d: Difficulty) -> f64 {
        use std::collections::HashSet;
        let asked: HashSet<&str> = self
            .outcomes
            .iter()
            .filter(|o| o.difficulty == d)
            .map(|o| o.question_id.as_str())
            .collect();
        if asked.is_empty() {
            return 0.0;
        }
        let answered: HashSet<&str> = self
            .outcomes
            .iter()
            .filter(|o| o.difficulty == d && o.success())
            .map(|o| o.question_id.as_str())
            .collect();
        100.0 * answered.len() as f64 / asked.len() as f64
    }

    /// Average attempts before finding an answer, over successful outcomes
    /// (Figure 10).
    pub fn avg_attempts(&self, d: Difficulty) -> f64 {
        let ok: Vec<&Outcome> = self
            .outcomes
            .iter()
            .filter(|o| o.difficulty == d && o.success())
            .collect();
        if ok.is_empty() {
            return 0.0;
        }
        ok.iter().map(|o| f64::from(o.attempts)).sum::<f64>() / ok.len() as f64
    }

    /// Average time (minutes) on successfully answered questions (Figure 11).
    pub fn avg_time_minutes(&self, d: Difficulty) -> f64 {
        let ok: Vec<&Outcome> = self
            .outcomes
            .iter()
            .filter(|o| o.difficulty == d && o.success())
            .collect();
        if ok.is_empty() {
            return 0.0;
        }
        ok.iter().map(|o| o.time_seconds).sum::<f64>() / ok.len() as f64 / 60.0
    }

    /// Fraction (%) of questions where a given suggestion kind was used
    /// (§7.3.2 usage breakdown).
    pub fn suggestion_usage(&self) -> (f64, f64, f64, f64) {
        let n = self.outcomes.len().max(1) as f64;
        let pred = self
            .outcomes
            .iter()
            .filter(|o| o.used_alt_predicate)
            .count() as f64;
        let lit = self.outcomes.iter().filter(|o| o.used_alt_literal).count() as f64;
        let relax = self.outcomes.iter().filter(|o| o.used_relaxation).count() as f64;
        let any = self
            .outcomes
            .iter()
            .filter(|o| o.used_any_suggestion())
            .count() as f64;
        (
            100.0 * pred / n,
            100.0 * lit / n,
            100.0 * relax / n,
            100.0 * any / n,
        )
    }
}

/// Run the study for Sapphire and one NL QA baseline on the same question
/// assignment (alternating which system goes first, per §7.1.1 — order only
/// affects the time model here, so it is recorded but has no carry-over).
pub fn run_study(
    pum: &PredictiveUserModel,
    qa: &dyn NlQaSystem,
    questions: &[Question],
    gold: &dyn Fn(&Question) -> Vec<String>,
    config: &StudyConfig,
) -> (SystemResults, SystemResults) {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut sapphire = SystemResults {
        system: "Sapphire".into(),
        outcomes: Vec::new(),
    };
    let mut qakis = SystemResults {
        system: qa.name().into(),
        outcomes: Vec::new(),
    };

    let easy: Vec<&Question> = questions
        .iter()
        .filter(|q| q.difficulty == Difficulty::Easy)
        .collect();
    let medium: Vec<&Question> = questions
        .iter()
        .filter(|q| q.difficulty == Difficulty::Medium)
        .collect();
    let difficult: Vec<&Question> = questions
        .iter()
        .filter(|q| q.difficulty == Difficulty::Difficult)
        .collect();

    for p in 0..config.participants {
        // Participant skill in [0.55, 1.0): scales error probabilities and
        // patience.
        let skill = 0.55 + 0.45 * rng.gen::<f64>();
        let max_attempts = 3 + (skill * 2.9) as u32; // 3..=5, like the paper

        let mut assigned: Vec<&Question> = Vec::new();
        for (pool, n) in [
            (&easy, config.easy_per),
            (&medium, config.medium_per),
            (&difficult, config.difficult_per),
        ] {
            for i in 0..n {
                assigned.push(pool[(p * 7 + i * 3) % pool.len()]);
            }
        }
        // The first (easy) question is a warm-up whose data is dropped.
        for (qi, question) in assigned.iter().enumerate() {
            let g = gold(question);
            let s_out =
                simulate_sapphire(pum, question, &g, p, skill, max_attempts, config, &mut rng);
            let q_out = simulate_qa(qa, question, &g, p, max_attempts, config, &mut rng);
            if qi == 0 {
                continue; // warm-up
            }
            sapphire.outcomes.push(s_out);
            qakis.outcomes.push(q_out);
        }
    }
    (sapphire, qakis)
}

/// Drive the real Sapphire session as a noisy participant.
#[allow(clippy::too_many_arguments)]
fn simulate_sapphire(
    pum: &PredictiveUserModel,
    question: &Question,
    gold: &[String],
    participant: usize,
    skill: f64,
    max_attempts: u32,
    config: &StudyConfig,
    rng: &mut StdRng,
) -> Outcome {
    let t = &config.time;
    let mut time = 0.0;
    let mut outcome = Outcome {
        question_id: question.id.clone(),
        participant,
        difficulty: question.difficulty,
        grade: Grade::Wrong,
        attempts: 0,
        time_seconds: 0.0,
        used_alt_predicate: false,
        used_alt_literal: false,
        used_relaxation: false,
    };

    // Error probabilities grow with difficulty, shrink with skill.
    let (p_typo, p_flatten, p_confuse) = match question.difficulty {
        Difficulty::Easy => (0.35 * (1.3 - skill), 0.0, 0.3 * (1.3 - skill)),
        Difficulty::Medium => (
            0.5 * (1.3 - skill),
            0.25 * (1.3 - skill),
            0.4 * (1.3 - skill),
        ),
        Difficulty::Difficult => (
            0.55 * (1.3 - skill),
            0.65 * (1.3 - skill),
            0.4 * (1.3 - skill),
        ),
    };

    // Build the participant's (possibly flawed) view of the script.
    let mut script = question.script.clone();
    let flattened = rng.gen::<f64>() < p_flatten;
    if flattened {
        if let Some(f) = flatten(&script) {
            script = f;
        }
    }
    // Confusable-predicate mistake: the user picks the wrong auto-complete
    // entry among near-identical surface forms ("birth date" vs "birth
    // place") — the error class the QSM's alternative *predicates* fix.
    let mut confused_row = None;
    if rng.gen::<f64>() < p_confuse {
        let candidates: Vec<usize> = script
            .rows
            .iter()
            .enumerate()
            .filter(|(_, r)| confusable(&r.predicate).is_some())
            .map(|(i, _)| i)
            .collect();
        if !candidates.is_empty() {
            let row = candidates[rng.gen_range(0..candidates.len())];
            let wrong = confusable(&script.rows[row].predicate).unwrap();
            script.rows[row].predicate = wrong.to_string();
            confused_row = Some(row);
        }
    }
    let typo = rng.gen::<f64>() < p_typo;
    let mut typo_row = None;
    if typo {
        // Misspell one literal object (keyword that is not a variable).
        let candidates: Vec<usize> = script
            .rows
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.object.starts_with('?') && r.object.len() > 3)
            .map(|(i, _)| i)
            .collect();
        if let Some(&row) = candidates.get(
            rng.gen_range(0..candidates.len().max(1))
                .min(candidates.len().saturating_sub(1)),
        ) {
            script.rows[row].object = misspell(&script.rows[row].object, rng);
            typo_row = Some(row);
        }
    }

    let mut session = Session::new(pum);
    for (i, row) in script.rows.iter().enumerate() {
        session.set_row(i, row.clone());
        time += t.type_term * 3.0 * (1.3 - skill).max(0.7);
    }
    session.modifiers = Modifiers {
        distinct: true,
        ..script.modifiers()
    };
    if script.order_by.is_some() || !script.filters.is_empty() || script.limit.is_some() {
        time += t.modifier;
    }

    while outcome.attempts < max_attempts {
        let run = match session.run() {
            Ok(r) => r,
            Err(_) => {
                // Validation failure: the user re-reads the boxes and repairs
                // the flaws using QCM completions (costs time, no Run click).
                time += t.manual_fix;
                restore_ideal(&mut session, &question.script);
                continue;
            }
        };
        outcome.attempts += 1;
        time += t.run;
        let g = grade(run.answers.solutions(), gold);
        if g == Grade::Correct {
            outcome.grade = g;
            break;
        }
        // Consult the QSM.
        time += t.review_suggestions;
        let mut advanced = false;
        // Prefer the suggestion whose prefetched answers grade best.
        let mut best: Option<(Grade, usize, bool)> = None; // (grade, idx, is_alt)
        for (i, alt) in run.suggestions.alternatives.iter().enumerate() {
            let ag = grade(&alt.answers, gold);
            if ag != Grade::Wrong && best.is_none_or(|(bg, _, _)| better(ag, bg)) {
                best = Some((ag, i, true));
            }
        }
        for (i, rel) in run.suggestions.relaxations.iter().enumerate() {
            let rg = grade(&rel.answers, gold);
            if rg != Grade::Wrong && best.is_none_or(|(bg, _, _)| better(rg, bg)) {
                best = Some((rg, i, false));
            }
        }
        if let Some((g, idx, is_alt)) = best {
            time += t.accept_suggestion;
            if is_alt {
                let alt = run.suggestions.alternatives[idx].clone();
                match alt.position {
                    sapphire_core::qsm::AlteredPosition::Predicate => {
                        outcome.used_alt_predicate = true
                    }
                    sapphire_core::qsm::AlteredPosition::Object => outcome.used_alt_literal = true,
                }
                let table = session.apply_alternative(&alt);
                // Accepting re-runs the updated query in the paper's UI.
                outcome.attempts += 1;
                let g2 = grade(table.solutions(), gold);
                if g2 == Grade::Correct {
                    outcome.grade = g2;
                    break;
                }
                outcome.grade = pick_worse_ok(outcome.grade, g2);
                advanced = true;
            } else {
                let rel = run.suggestions.relaxations[idx].clone();
                outcome.used_relaxation = true;
                let table = session.apply_relaxation(&rel);
                outcome.attempts += 1;
                let g2 = grade(table.solutions(), gold);
                if g2 == Grade::Correct {
                    outcome.grade = g2;
                    break;
                }
                outcome.grade = pick_worse_ok(outcome.grade, g2);
                advanced = true;
            }
            let _ = g;
        }
        if !advanced {
            // No useful suggestion: the participant hunts for their own
            // mistake. Higher skill = more likely to spot it.
            time += t.manual_fix;
            if rng.gen::<f64>() < 0.35 + 0.6 * skill {
                if let Some(row) = typo_row.take() {
                    if let Some(ideal) = question.script.rows.get(row) {
                        session.set_row(row, ideal.clone());
                        continue;
                    }
                }
                if let Some(row) = confused_row.take() {
                    if let Some(ideal) = question.script.rows.get(row) {
                        session.set_row(row, ideal.clone());
                        continue;
                    }
                }
                restore_ideal(&mut session, &question.script);
            }
        }
    }
    outcome.time_seconds = time;
    outcome
}

fn better(a: Grade, b: Grade) -> bool {
    rank(a) > rank(b)
}

fn rank(g: Grade) -> u8 {
    match g {
        Grade::Correct => 2,
        Grade::Partial => 1,
        Grade::Wrong => 0,
    }
}

fn pick_worse_ok(current: Grade, new: Grade) -> Grade {
    if rank(new) > rank(current) {
        new
    } else {
        current
    }
}

fn restore_ideal(session: &mut Session<'_>, script: &SessionScript) {
    session.triples.clear();
    for (i, row) in script.rows.iter().enumerate() {
        session.set_row(i, row.clone());
    }
    session.modifiers = Modifiers {
        distinct: session.modifiers.distinct,
        ..script.modifiers()
    };
}

/// Simulate a participant using a natural-language QA system: type the
/// question, read the answer, rephrase up to the attempt budget.
fn simulate_qa(
    qa: &dyn NlQaSystem,
    question: &Question,
    gold: &[String],
    participant: usize,
    max_attempts: u32,
    config: &StudyConfig,
    rng: &mut StdRng,
) -> Outcome {
    let t = &config.time;
    let mut outcome = Outcome {
        question_id: question.id.clone(),
        participant,
        difficulty: question.difficulty,
        grade: Grade::Wrong,
        attempts: 0,
        time_seconds: 0.0,
        used_alt_predicate: false,
        used_alt_literal: false,
        used_relaxation: false,
    };
    let max_attempts = max_attempts.min(4); // "3 to 4 attempts" for QAKiS
    let mut phrasings: Vec<&String> = question.paraphrases.iter().collect();
    // Participants phrase questions in an individual order.
    if phrasings.len() > 1 {
        let rot = rng.gen_range(0..phrasings.len());
        phrasings.rotate_left(rot);
    }
    for phrasing in phrasings.into_iter().take(max_attempts as usize) {
        outcome.attempts += 1;
        outcome.time_seconds += t.nl_type + t.nl_read;
        let answers = qa.answer(phrasing);
        let g = grade(&answers, gold);
        if rank(g) > rank(outcome.grade) {
            outcome.grade = g;
        }
        if g == Grade::Correct {
            break;
        }
    }
    outcome
}

/// Collapse entity-hop structure: if a row's object keyword hangs off an
/// intermediate variable (`?b author ?a . ?a name "Jack Kerouac"`), an
/// RDF-naïve user connects the literal directly (`?b author "Jack Kerouac"`)
/// — the exact mistake Figure 6 relaxes.
pub fn flatten(script: &SessionScript) -> Option<SessionScript> {
    let mut rows = script.rows.clone();
    let mut changed = false;
    loop {
        // Find a "leaf" row (?v, pred, keyword-literal) whose subject var is
        // the object of another row.
        let leaf = rows.iter().enumerate().find_map(|(i, r)| {
            if r.object.starts_with('?') || !r.subject.starts_with('?') {
                return None;
            }
            let var = r.subject.clone();
            let parent = rows
                .iter()
                .position(|other| other.object == var && !std::ptr::eq(other, r))?;
            Some((i, parent))
        });
        let Some((leaf_idx, parent_idx)) = leaf else {
            break;
        };
        let keyword = rows[leaf_idx].object.clone();
        rows[parent_idx].object = keyword;
        rows.remove(leaf_idx);
        changed = true;
    }
    if !changed || rows.is_empty() {
        return None;
    }
    Some(SessionScript {
        rows,
        order_by: script.order_by.clone(),
        limit: script.limit,
        count: script.count,
        filters: Vec::new(), // filter vars may have vanished
    })
}

/// Keyword pairs with near-identical surface forms that naive users pick
/// wrongly from auto-complete lists. JW similarity between each pair clears
/// θ = 0.7, so the QSM's Algorithm 2 can suggest the correction.
pub fn confusable(predicate_keyword: &str) -> Option<&'static str> {
    match predicate_keyword {
        "birth place" => Some("birth date"),
        "birth date" => Some("birth place"),
        "death place" => Some("death date"),
        "country" => Some("currency"),
        "currency" => Some("country"),
        _ => None,
    }
}

/// A keyboard-plausible misspelling (the "Kennedys" of Figure 2).
pub fn misspell(word: &str, rng: &mut StdRng) -> String {
    let chars: Vec<char> = word.chars().collect();
    match rng.gen_range(0..3) {
        0 => format!("{word}s"),
        1 if chars.len() > 4 => {
            // Drop an interior character.
            let pos = rng.gen_range(1..chars.len() - 1);
            chars
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != pos)
                .map(|(_, c)| c)
                .collect()
        }
        _ => {
            // Double an interior character.
            let pos = rng.gen_range(1..chars.len().max(2));
            let mut out: Vec<char> = chars.clone();
            out.insert(pos.min(chars.len()), chars[pos.min(chars.len() - 1)]);
            out.into_iter().collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    #[test]
    fn flatten_reproduces_figure_6_shape() {
        let d3 = workload::appendix_b()
            .into_iter()
            .find(|q| q.id == "D3")
            .unwrap();
        let flat = flatten(&d3.script).expect("D3 flattens");
        assert_eq!(flat.rows.len(), 2, "{:?}", flat.rows);
        assert!(flat.rows.iter().any(|r| r.object == "Jack Kerouac"));
        assert!(flat.rows.iter().any(|r| r.object == "Viking Press"));
    }

    #[test]
    fn flatten_returns_none_for_flat_scripts() {
        let m4 = workload::appendix_b()
            .into_iter()
            .find(|q| q.id == "M4")
            .unwrap();
        assert!(flatten(&m4.script).is_none());
    }

    #[test]
    fn misspell_changes_the_word() {
        let mut rng = StdRng::seed_from_u64(5);
        for w in ["Kennedy", "Viking Press", "Charmed"] {
            for _ in 0..10 {
                assert_ne!(misspell(w, &mut rng), w);
            }
        }
    }

    #[test]
    fn time_model_defaults_are_positive() {
        let t = TimeModel::default();
        for v in [
            t.type_term,
            t.run,
            t.review_suggestions,
            t.accept_suggestion,
            t.manual_fix,
            t.modifier,
            t.nl_type,
            t.nl_read,
        ] {
            assert!(v > 0.0);
        }
        // Sapphire interactions cost more than a single NL exchange — the
        // Figure 11 premise.
        assert!(t.type_term * 2.0 + t.run > t.nl_type / 2.0);
    }
}

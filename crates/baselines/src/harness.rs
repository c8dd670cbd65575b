//! The §7.2 comparison protocol: run every system on the 50-question set.
//!
//! Protocol fidelity notes (all from §7.2):
//! * QAKiS gets up to 3 attempts with paraphrases that do not inject
//!   vocabulary knowledge.
//! * KBQA answers from its templates only.
//! * S4 receives queries whose predicates and literals are correct ("we use
//!   Sapphire to help us find predicates and literals") but whose structure
//!   follows the question naively — we feed it the *flattened* session script
//!   when one exists.
//! * SPARQLByE receives two example answers for questions with enough gold
//!   answers, with the gold standard as the feedback oracle.
//! * Sapphire is driven with terms from the question only, accepting QSM
//!   suggestions as needed.

use std::sync::Arc;

use sapphire_core::init::InitMode;
use sapphire_core::pum::PredictiveUserModel;
use sapphire_core::session::{Modifiers, Session};
use sapphire_core::SapphireConfig;
use sapphire_datagen::userstudy::{flatten, NlQaSystem};
use sapphire_datagen::workload::{gold_answers, grade, qald_style_50, Grade, Question};
use sapphire_datagen::{generate, DatasetConfig};
use sapphire_endpoint::{Endpoint, EndpointLimits, LocalEndpoint};
use sapphire_text::Lexicon;

use crate::kbqa::Kbqa;
use crate::qakis::QaKis;
use crate::s4::S4;
use crate::scoring::SystemScore;
use crate::sparqlbye::SparqlByE;

/// Everything the Table 1 experiment needs, pre-built.
pub struct ComparisonHarness {
    /// The shared simulated endpoint.
    pub endpoint: Arc<LocalEndpoint>,
    /// Sapphire, fully initialized.
    pub pum: PredictiveUserModel,
    /// QAKiS baseline.
    pub qakis: QaKis,
    /// KBQA baseline.
    pub kbqa: Kbqa,
    /// S4 baseline.
    pub s4: S4,
    /// SPARQLByE baseline.
    pub sparqlbye: SparqlByE,
    /// The 50-question set.
    pub questions: Vec<Question>,
}

impl ComparisonHarness {
    /// Generate the dataset, initialize Sapphire, and build all baselines.
    pub fn build(dataset: DatasetConfig, sapphire_config: SapphireConfig) -> Self {
        let graph = generate(dataset);
        let endpoint = Arc::new(LocalEndpoint::new(
            "dbpedia",
            graph,
            EndpointLimits::warehouse(),
        ));
        let ep_dyn: Arc<dyn Endpoint> = endpoint.clone();
        let lexicon = Lexicon::dbpedia_default();
        let pum = PredictiveUserModel::initialize(
            vec![ep_dyn.clone()],
            lexicon.clone(),
            sapphire_config,
            InitMode::Federated,
        )
        .expect("initialization succeeds on the simulated endpoint");
        let qakis = QaKis::build(ep_dyn.clone(), &lexicon);
        let kbqa = Kbqa::build(ep_dyn.clone());
        let s4 = S4::build(ep_dyn.clone());
        let sparqlbye = SparqlByE::build(ep_dyn);
        ComparisonHarness {
            endpoint,
            pum,
            qakis,
            kbqa,
            s4,
            sparqlbye,
            questions: qald_style_50(),
        }
    }

    /// Gold answers for a question.
    pub fn gold(&self, q: &Question) -> Vec<String> {
        gold_answers(q, self.endpoint.as_ref())
    }

    /// Run the full comparison; returns measured rows in Table 1 order.
    pub fn run(&self) -> Vec<SystemScore> {
        let total = self.questions.len();
        let mut qakis = SystemScore::new("QAKiS", total);
        let mut kbqa = SystemScore::new("KBQA", total);
        let mut s4 = SystemScore::new("S4", total);
        let mut bye = SystemScore::new("SPARQLByE", total);
        let mut sapphire = SystemScore::new("Sapphire", total);

        for q in &self.questions {
            let gold = self.gold(q);

            // --- QAKiS: up to 3 paraphrase attempts. ---
            let mut best = Grade::Wrong;
            let mut answered = false;
            for phrasing in q.paraphrases.iter().take(3) {
                let answers = self.qakis.answer(phrasing);
                if !answers.is_empty() {
                    answered = true;
                    let g = grade(&answers, &gold);
                    if rank(g) > rank(best) {
                        best = g;
                    }
                    if best == Grade::Correct {
                        break;
                    }
                }
            }
            qakis.record(answered, best);

            // --- KBQA: one shot, templates only. ---
            let answers = self.kbqa.answer(&q.text);
            kbqa.record(!answers.is_empty(), grade(&answers, &gold));

            // --- S4: correct terms, naive structure. ---
            let g = self.run_s4(q, &gold);
            s4.record(g.0, g.1);

            // --- SPARQLByE: example-driven. ---
            let g = self.run_sparqlbye(q, &gold);
            bye.record(g.0, g.1);

            // --- Sapphire: expert restricted to question terms. ---
            let g = self.run_sapphire(q, &gold);
            sapphire.record(g.0, g.1);
        }
        vec![qakis, kbqa, s4, bye, sapphire]
    }

    /// S4 protocol: build the (possibly structurally naive) query through the
    /// session so terms are resolved, then let S4 rewrite and execute.
    fn run_s4(&self, q: &Question, gold: &[String]) -> (bool, Grade) {
        // S4 consumes *approximate structured queries*: a plain BGP over the
        // question's terms with naive structure — no filters, superlatives,
        // or aggregates (outside its query model, like the systems in [31]).
        let script = flatten(&q.script).unwrap_or_else(|| q.script.clone());
        let mut session = Session::new(&self.pum);
        for (i, row) in script.rows.iter().enumerate() {
            session.set_row(i, row.clone());
        }
        session.modifiers.distinct = true;
        let Ok(query) = session.build_query() else {
            return (false, Grade::Wrong);
        };
        let answers = self.s4.answer(&query);
        (!answers.is_empty(), grade(&answers, gold))
    }

    /// SPARQLByE protocol: two gold answers as examples, gold as the oracle.
    fn run_sparqlbye(&self, _q: &Question, gold: &[String]) -> (bool, Grade) {
        if gold.len() < 2 {
            return (false, Grade::Wrong);
        }
        let examples: Vec<String> = gold.iter().take(2).cloned().collect();
        let oracle = |candidate: &str| gold.iter().any(|g| g == candidate);
        match self.sparqlbye.learn(&examples, &oracle) {
            Some(answers) if !answers.is_empty() => (true, grade(&answers, gold)),
            _ => (false, Grade::Wrong),
        }
    }

    /// Sapphire protocol: ideal script (terms from the question), accept the
    /// best QSM suggestion when the direct query falls short.
    fn run_sapphire(&self, q: &Question, gold: &[String]) -> (bool, Grade) {
        let mut session = Session::new(&self.pum);
        for (i, row) in q.script.rows.iter().enumerate() {
            session.set_row(i, row.clone());
        }
        session.modifiers = Modifiers {
            distinct: true,
            ..q.script.modifiers()
        };
        let Ok(run) = session.run() else {
            return (false, Grade::Wrong);
        };
        let mut best = grade(run.answers.solutions(), gold);
        let mut answered = !run.answers.solutions().is_empty();
        if best != Grade::Correct {
            for alt in &run.suggestions.alternatives {
                let g = grade(&alt.answers, gold);
                if rank(g) > rank(best) {
                    best = g;
                    answered = true;
                }
            }
            for rel in &run.suggestions.relaxations {
                let g = grade(&rel.answers, gold);
                if rank(g) > rank(best) {
                    best = g;
                    answered = true;
                }
            }
        }
        (answered, best)
    }
}

fn rank(g: Grade) -> u8 {
    match g {
        Grade::Correct => 2,
        Grade::Partial => 1,
        Grade::Wrong => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn table1_shape_holds() {
        let h = harness();
        let rows = h.run();
        let get = |name: &str| rows.iter().find(|r| r.name == name).unwrap().clone();
        let sapphire = get("Sapphire");
        let qakis = get("QAKiS");
        let kbqa = get("KBQA");
        let s4 = get("S4");
        let bye = get("SPARQLByE");

        // The paper's headline orderings:
        // 1. Sapphire dominates every measured system on recall and F1.
        for other in [&qakis, &kbqa, &s4, &bye] {
            assert!(
                sapphire.recall() > other.recall(),
                "Sapphire recall {} vs {} {}",
                sapphire.recall(),
                other.name,
                other.recall()
            );
            assert!(sapphire.f1() > other.f1());
        }
        // 2. KBQA: perfect precision, low recall (factoid-only).
        assert!(
            kbqa.precision() >= 0.99,
            "KBQA precision {}",
            kbqa.precision()
        );
        assert!(kbqa.recall() < sapphire.recall());
        // 3. S4 beats the NL systems on precision (correct terms given).
        assert!(s4.precision() > qakis.precision());
        // 4. SPARQLByE answers the fewest questions.
        assert!(bye.processed <= qakis.processed);
        assert!(bye.recall() < s4.recall());
        // 5. Sapphire's precision is 1.0 (it only shows what the data holds).
        assert!(
            sapphire.precision() > 0.95,
            "Sapphire precision {}",
            sapphire.precision()
        );
    }

    #[test]
    fn sapphire_answers_most_questions() {
        let h = harness();
        let rows = h.run();
        let sapphire = rows.iter().find(|r| r.name == "Sapphire").unwrap();
        assert!(
            sapphire.recall() >= 0.8,
            "Sapphire should answer ≥80% of the set, got {}",
            sapphire.recall()
        );
    }
}

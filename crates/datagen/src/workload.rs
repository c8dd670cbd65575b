//! The evaluation workload: the 27 Appendix-B user-study questions plus
//! auto-generated factoid questions to reach the 50-question QALD-5-sized set
//! used in Table 1.
//!
//! Every question carries (a) a natural-language text with paraphrases (what
//! QA baselines consume), (b) a gold SPARQL query over the synthetic dataset
//! (the grader), and (c) a *session script* — the triple-pattern keywords an
//! informed user would enter into Sapphire's text boxes.

use sapphire_core::session::{Modifiers, TripleInput};
use sapphire_endpoint::Endpoint;
use sapphire_rdf::Term;
use sapphire_sparql::{CmpOp, Expr, Solutions};

/// Question difficulty, per the paper's three categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Difficulty {
    /// Factoid-like, one or two hops.
    Easy,
    /// Multi-hop or aggregate.
    Medium,
    /// Structural mismatch, filters, superlatives, self-joins.
    Difficult,
}

impl std::fmt::Display for Difficulty {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Difficulty::Easy => "easy",
            Difficulty::Medium => "medium",
            Difficulty::Difficult => "difficult",
        };
        f.write_str(s)
    }
}

/// The idealized Sapphire inputs for a question.
#[derive(Debug, Clone, Default)]
pub struct SessionScript {
    /// Triple rows: (subject, predicate keyword, object keyword).
    pub rows: Vec<TripleInput>,
    /// ORDER BY (?var, descending).
    pub order_by: Option<(String, bool)>,
    /// LIMIT.
    pub limit: Option<usize>,
    /// Use COUNT of the first variable.
    pub count: bool,
    /// Raw filters.
    pub filters: Vec<Expr>,
}

impl SessionScript {
    /// The script's ORDER BY, LIMIT, COUNT and filters as session
    /// [`Modifiers`], without DISTINCT: a caller that wants it sets it.
    pub fn modifiers(&self) -> Modifiers {
        Modifiers {
            distinct: false,
            order_by: self.order_by.clone(),
            limit: self.limit,
            count: self.count,
            filters: self.filters.clone(),
        }
    }

    fn rows(rows: &[(&str, &str, &str)]) -> Self {
        SessionScript {
            rows: rows
                .iter()
                .map(|(s, p, o)| TripleInput::new(*s, *p, *o))
                .collect(),
            ..Default::default()
        }
    }

    fn with_filter(mut self, f: Expr) -> Self {
        self.filters.push(f);
        self
    }

    fn with_order(mut self, var: &str, desc: bool) -> Self {
        self.order_by = Some((var.to_string(), desc));
        self
    }

    fn with_limit(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }

    /// Enable the COUNT modifier (available to future workload questions).
    #[allow(dead_code)]
    fn with_count(mut self) -> Self {
        self.count = true;
        self
    }
}

/// One workload question.
#[derive(Debug, Clone)]
pub struct Question {
    /// Stable id: E1–E10, M1–M8, D1–D9, F1–F23.
    pub id: String,
    /// The primary natural-language form.
    pub text: String,
    /// Difficulty class.
    pub difficulty: Difficulty,
    /// Gold SPARQL over the synthetic dataset.
    pub gold_sparql: String,
    /// Idealized Sapphire session inputs.
    pub script: SessionScript,
    /// Natural-language paraphrases (first = `text`), for QA baselines.
    pub paraphrases: Vec<String>,
    /// True if this is a factoid (single entity + property) question.
    pub factoid: bool,
}

fn gt(var: &str, n: f64) -> Expr {
    Expr::Cmp(
        CmpOp::Gt,
        Box::new(Expr::Var(var.into())),
        Box::new(Expr::Const(Term::Literal(sapphire_rdf::Literal::double(n)))),
    )
}

fn ge(var: &str, n: f64) -> Expr {
    Expr::Cmp(
        CmpOp::Ge,
        Box::new(Expr::Var(var.into())),
        Box::new(Expr::Const(Term::Literal(sapphire_rdf::Literal::double(n)))),
    )
}

fn year_eq(var: &str, year: i32) -> Expr {
    Expr::Cmp(
        CmpOp::Eq,
        Box::new(Expr::Year(Box::new(Expr::Var(var.into())))),
        Box::new(Expr::Const(Term::Literal(sapphire_rdf::Literal::integer(
            year as i64,
        )))),
    )
}

fn q(
    id: &str,
    text: &str,
    difficulty: Difficulty,
    gold: &str,
    script: SessionScript,
    paraphrases: &[&str],
    factoid: bool,
) -> Question {
    let mut all = vec![text.to_string()];
    all.extend(paraphrases.iter().map(|p| p.to_string()));
    Question {
        id: id.to_string(),
        text: text.to_string(),
        difficulty,
        gold_sparql: gold.to_string(),
        script,
        paraphrases: all,
        factoid,
    }
}

/// The 27 questions of Appendix B.
pub fn appendix_b() -> Vec<Question> {
    use Difficulty::*;
    vec![
        // ------------------------------ Easy ------------------------------
        q("E1", "Country in which the Ganges starts", Easy,
          r#"SELECT ?c WHERE { ?r dbo:name "Ganges"@en . ?r dbo:sourceCountry ?c }"#,
          SessionScript::rows(&[("?river", "name", "Ganges"), ("?river", "source country", "?country")]),
          &["Where does the Ganges start?", "In which country does the Ganges originate?"], true),
        q("E2", "John F. Kennedy's vice president", Easy,
          r#"SELECT ?vp WHERE { ?p dbo:name "John F. Kennedy"@en . ?p dbo:vicePresident ?vp }"#,
          SessionScript::rows(&[("?p", "name", "John F. Kennedy"), ("?p", "vice president", "?vp")]),
          &["Who was John F. Kennedy's vice president?", "vice president of John F. Kennedy"], true),
        q("E3", "Time zone of Salt Lake City", Easy,
          r#"SELECT ?tz WHERE { ?c dbo:name "Salt Lake City"@en . ?c dbo:timeZone ?tz }"#,
          SessionScript::rows(&[("?city", "name", "Salt Lake City"), ("?city", "time zone", "?tz")]),
          &["What is the time zone of Salt Lake City?", "Salt Lake City time zone"], true),
        q("E4", "Tom Hanks's wife", Easy,
          r#"SELECT ?w WHERE { ?p dbo:name "Tom Hanks"@en . ?p dbo:spouse ?w }"#,
          SessionScript::rows(&[("?p", "name", "Tom Hanks"), ("?p", "spouse", "?wife")]),
          &["Who is the wife of Tom Hanks?", "Tom Hanks spouse"], true),
        q("E5", "Children of Margaret Thatcher", Easy,
          r#"SELECT ?c WHERE { ?p dbo:name "Margaret Thatcher"@en . ?p dbo:child ?c }"#,
          SessionScript::rows(&[("?p", "name", "Margaret Thatcher"), ("?p", "child", "?child")]),
          &["Who are the children of Margaret Thatcher?", "Margaret Thatcher children"], true),
        q("E6", "Currency of the Czech Republic", Easy,
          r#"SELECT ?cur WHERE { ?c dbo:name "Czech Republic"@en . ?c dbo:currency ?cur }"#,
          SessionScript::rows(&[("?c", "name", "Czech Republic"), ("?c", "currency", "?cur")]),
          &["What is the currency of the Czech Republic?", "Czech Republic currency"], true),
        q("E7", "Designer of the Brooklyn Bridge", Easy,
          r#"SELECT ?d WHERE { ?b dbo:name "Brooklyn Bridge"@en . ?b dbo:designer ?d }"#,
          SessionScript::rows(&[("?b", "name", "Brooklyn Bridge"), ("?b", "designer", "?d")]),
          &["Who designed the Brooklyn Bridge?", "Brooklyn Bridge designer"], true),
        q("E8", "Wife of U.S. president Abraham Lincoln", Easy,
          r#"SELECT ?w WHERE { ?p dbo:name "Abraham Lincoln"@en . ?p dbo:spouse ?w }"#,
          SessionScript::rows(&[("?p", "name", "Abraham Lincoln"), ("?p", "spouse", "?wife")]),
          &["Who was the wife of Abraham Lincoln?", "Abraham Lincoln spouse"], true),
        q("E9", "Creator of Wikipedia", Easy,
          r#"SELECT ?c WHERE { ?w dbo:name "Wikipedia"@en . ?w dbo:creator ?c }"#,
          SessionScript::rows(&[("?w", "name", "Wikipedia"), ("?w", "creator", "?c")]),
          &["Who created Wikipedia?", "Wikipedia creator"], true),
        q("E10", "Depth of lake Placid", Easy,
          r#"SELECT ?d WHERE { ?l dbo:name "Lake Placid"@en . ?l dbo:depth ?d }"#,
          SessionScript::rows(&[("?l", "name", "Lake Placid"), ("?l", "depth", "?d")]),
          &["How deep is Lake Placid?", "Lake Placid depth"], true),
        // ----------------------------- Medium -----------------------------
        q("M1", "Instruments played by Cat Stevens", Medium,
          r#"SELECT ?i WHERE { ?a dbo:name "Cat Stevens"@en . ?a dbo:instrument ?i }"#,
          SessionScript::rows(&[("?a", "name", "Cat Stevens"), ("?a", "instrument", "?i")]),
          &["Which instruments does Cat Stevens play?", "Cat Stevens instruments"], true),
        q("M2", "Parents of the wife of Juan Carlos I", Medium,
          r#"SELECT ?par WHERE { ?jc dbo:name "Juan Carlos I"@en . ?jc dbo:spouse ?w . ?w dbo:parent ?par }"#,
          SessionScript::rows(&[
              ("?jc", "name", "Juan Carlos I"),
              ("?jc", "spouse", "?wife"),
              ("?wife", "parent", "?parent"),
          ]),
          &["Who are the parents of the wife of Juan Carlos I?"], false),
        q("M3", "U.S. state in which Fort Knox is located", Medium,
          r#"SELECT ?s WHERE { ?f dbo:name "Fort Knox"@en . ?f dbo:state ?s }"#,
          SessionScript::rows(&[("?f", "name", "Fort Knox"), ("?f", "state", "?s")]),
          &["In which U.S. state is Fort Knox located?", "Fort Knox state"], true),
        q("M4", "Person who is called Frank The Tank", Medium,
          r#"SELECT ?p WHERE { ?p dbo:nickname "Frank The Tank"@en }"#,
          SessionScript::rows(&[("?p", "nickname", "Frank The Tank")]),
          &["Who is called Frank The Tank?", "person nicknamed Frank The Tank"], true),
        q("M5", "Birthdays of all actors of the television show Charmed", Medium,
          r#"SELECT ?bd WHERE { ?show dbo:name "Charmed"@en . ?show dbo:starring ?actor . ?actor dbo:birthDate ?bd }"#,
          SessionScript::rows(&[
              ("?show", "name", "Charmed"),
              ("?show", "starring", "?actor"),
              ("?actor", "birth date", "?bd"),
          ]),
          &["What are the birthdays of the actors of Charmed?"], false),
        q("M6", "Country in which the Limerick Lake is located", Medium,
          r#"SELECT ?c WHERE { ?l dbo:name "Limerick Lake"@en . ?l dbo:country ?c }"#,
          SessionScript::rows(&[("?l", "name", "Limerick Lake"), ("?l", "country", "?c")]),
          &["In which country is Limerick Lake?", "Limerick Lake country"], true),
        q("M7", "Person to which Robert F. Kennedy's daughter is married", Medium,
          r#"SELECT ?h WHERE { ?rfk dbo:name "Robert F. Kennedy"@en . ?rfk dbo:child ?d . ?d dbo:spouse ?h }"#,
          SessionScript::rows(&[
              ("?rfk", "name", "Robert F. Kennedy"),
              ("?rfk", "child", "?daughter"),
              ("?daughter", "spouse", "?husband"),
          ]),
          &["Whom is Robert F. Kennedy's daughter married to?"], false),
        q("M8", "Number of people living in the capital of Australia", Medium,
          r#"SELECT ?pop WHERE { ?c dbo:name "Australia"@en . ?c dbo:capital ?cap . ?cap dbo:population ?pop }"#,
          SessionScript::rows(&[
              ("?c", "name", "Australia"),
              ("?c", "capital", "?capital"),
              ("?capital", "population", "?pop"),
          ]),
          &["How many people live in the capital of Australia?"], false),
        // ---------------------------- Difficult ---------------------------
        q("D1", "Chess players who died in the same place they were born in", Difficult,
          "SELECT ?p WHERE { ?p a dbo:ChessPlayer . ?p dbo:birthPlace ?place . ?p dbo:deathPlace ?place }",
          SessionScript::rows(&[
              ("?p", "type", "chess player"),
              ("?p", "birth place", "?place"),
              ("?p", "death place", "?place"),
          ]),
          &["Which chess players died where they were born?"], false),
        q("D2", "Books by William Goldman with more than 300 pages", Difficult,
          r#"SELECT ?b WHERE { ?a dbo:name "William Goldman"@en . ?b dbo:author ?a . ?b dbo:numberOfPages ?n . FILTER(?n > 300) }"#,
          SessionScript::rows(&[
              ("?a", "name", "William Goldman"),
              ("?b", "author", "?a"),
              ("?b", "number of pages", "?n"),
          ])
          .with_filter(gt("n", 300.0)),
          &["Which books by William Goldman have more than 300 pages?"], false),
        q("D3", "Books by Jack Kerouac which were published by Viking Press", Difficult,
          r#"SELECT ?b WHERE { ?a dbo:name "Jack Kerouac"@en . ?b dbo:author ?a . ?b dbo:publisher ?pub . ?pub rdfs:label "Viking Press"@en }"#,
          SessionScript::rows(&[
              ("?a", "name", "Jack Kerouac"),
              ("?b", "author", "?a"),
              ("?b", "publisher", "?pub"),
              ("?pub", "label", "Viking Press"),
          ]),
          &["Which books by Jack Kerouac were published by Viking Press?"], false),
        q("D4", "Films directed by Steven Spielberg with a budget of at least $80 million", Difficult,
          r#"SELECT ?f WHERE { ?d dbo:name "Steven Spielberg"@en . ?f dbo:director ?d . ?f dbo:budget ?b . FILTER(?b >= 8.0E7) }"#,
          SessionScript::rows(&[
              ("?d", "name", "Steven Spielberg"),
              ("?f", "director", "?d"),
              ("?f", "budget", "?b"),
          ])
          .with_filter(ge("b", 8.0e7)),
          &["Which films directed by Steven Spielberg had a budget of at least 80 million dollars?"], false),
        q("D5", "Most populous city in Australia", Difficult,
          r#"SELECT ?city WHERE { ?c dbo:name "Australia"@en . ?city dbo:country ?c . ?city dbo:population ?pop } ORDER BY DESC(?pop) LIMIT 1"#,
          SessionScript::rows(&[
              ("?c", "name", "Australia"),
              ("?city", "country", "?c"),
              ("?city", "population", "?pop"),
          ])
          .with_order("pop", true)
          .with_limit(1),
          &["What is the most populous city in Australia?"], false),
        q("D6", "Films starring Clint Eastwood direct by himself", Difficult,
          r#"SELECT ?f WHERE { ?e dbo:name "Clint Eastwood"@en . ?f dbo:starring ?e . ?f dbo:director ?e }"#,
          SessionScript::rows(&[
              ("?e", "name", "Clint Eastwood"),
              ("?f", "starring", "?e"),
              ("?f", "director", "?e"),
          ]),
          &["Which films starring Clint Eastwood did he direct himself?"], false),
        q("D7", "Presidents born in 1945", Difficult,
          r#"SELECT ?p WHERE { ?p a dbo:President . ?p dbo:birthDate ?bd . FILTER(year(?bd) = 1945) }"#,
          SessionScript::rows(&[("?p", "type", "president"), ("?p", "birth date", "?bd")])
              .with_filter(year_eq("bd", 1945)),
          &["Which presidents were born in 1945?"], false),
        q("D8", "Find each company that works in both the aerospace and medicine industries", Difficult,
          r#"SELECT ?c WHERE { ?c dbo:industry "Aerospace"@en . ?c dbo:industry "Medicine"@en }"#,
          SessionScript::rows(&[
              ("?c", "industry", "Aerospace"),
              ("?c", "industry", "Medicine"),
          ]),
          &["Which companies work in both aerospace and medicine?"], false),
        q("D9", "Number of inhabitants of the most populous city in Canada", Difficult,
          r#"SELECT ?pop WHERE { ?c dbo:name "Canada"@en . ?city dbo:country ?c . ?city dbo:population ?pop } ORDER BY DESC(?pop) LIMIT 1"#,
          SessionScript::rows(&[
              ("?c", "name", "Canada"),
              ("?city", "country", "?c"),
              ("?city", "population", "?pop"),
          ])
          .with_order("pop", true)
          .with_limit(1),
          &["How many inhabitants does the most populous city in Canada have?"], false),
    ]
}

/// Factoid questions auto-derived from the anchor entities, bringing the set
/// to 50 for the Table 1 comparison (QALD-5 has 50 questions).
pub fn factoid_extras() -> Vec<Question> {
    let specs: &[(&str, &str, &str)] = &[
        // (entity name, predicate keyword / gold predicate local, question stem)
        (
            "Salt Lake City",
            "population",
            "What is the population of Salt Lake City?",
        ),
        ("Sydney", "population", "What is the population of Sydney?"),
        (
            "Melbourne",
            "population",
            "What is the population of Melbourne?",
        ),
        (
            "Toronto",
            "population",
            "What is the population of Toronto?",
        ),
        (
            "Montreal",
            "population",
            "What is the population of Montreal?",
        ),
        ("Ottawa", "population", "What is the population of Ottawa?"),
        (
            "Canberra",
            "population",
            "What is the population of Canberra?",
        ),
        ("Alyssa Milano", "birthDate", "When was Alyssa Milano born?"),
        (
            "Holly Marie Combs",
            "birthDate",
            "When was Holly Marie Combs born?",
        ),
        (
            "Shannen Doherty",
            "birthDate",
            "When was Shannen Doherty born?",
        ),
        (
            "John F. Kennedy",
            "spouse",
            "Who is the spouse of John F. Kennedy?",
        ),
        (
            "John F. Kennedy",
            "birthDate",
            "When was John F. Kennedy born?",
        ),
        (
            "Margaret Thatcher",
            "child",
            "Who are the children of Margaret Thatcher?",
        ),
        (
            "Queen Sofia",
            "parent",
            "Who are the parents of Queen Sofia?",
        ),
        (
            "Robert F. Kennedy",
            "child",
            "Who is the child of Robert F. Kennedy?",
        ),
        (
            "Kathleen Kennedy",
            "spouse",
            "Who is the spouse of Kathleen Kennedy?",
        ),
        ("Australia", "capital", "What is the capital of Australia?"),
        ("Canada", "capital", "What is the capital of Canada?"),
        (
            "Limerick Lake",
            "country",
            "In which country is Limerick Lake located?",
        ),
        ("Fort Knox", "state", "In which state is Fort Knox?"),
        (
            "Brooklyn Bridge",
            "designer",
            "Who designed the Brooklyn Bridge?",
        ),
        ("Wikipedia", "creator", "Who is the creator of Wikipedia?"),
        ("Lake Placid", "depth", "What is the depth of Lake Placid?"),
    ];
    specs
        .iter()
        .enumerate()
        .map(|(i, (entity, pred, text))| {
            let keyword = sapphire_text::surface_form(pred);
            q(
                &format!("F{}", i + 1),
                text,
                Difficulty::Easy,
                &format!(r#"SELECT ?o WHERE {{ ?e dbo:name "{entity}"@en . ?e dbo:{pred} ?o }}"#),
                SessionScript::rows(&[("?e", "name", entity), ("?e", keyword.as_str(), "?o")]),
                &[],
                true,
            )
        })
        .collect()
}

/// The full 50-question comparison set (27 Appendix-B + 23 factoids).
pub fn qald_style_50() -> Vec<Question> {
    let mut all = appendix_b();
    all.extend(factoid_extras());
    all
}

/// Gold answers: the lexical forms of the gold query's first column.
pub fn gold_answers(question: &Question, endpoint: &dyn Endpoint) -> Vec<String> {
    let Ok(sols) = endpoint.select(&question.gold_sparql) else {
        return Vec::new();
    };
    let mut out: Vec<String> = sols
        .rows
        .iter()
        .filter_map(|r| {
            r.first()
                .and_then(|c| c.as_ref())
                .map(|t| t.lexical().to_string())
        })
        .collect();
    out.sort();
    out.dedup();
    out
}

/// Grade an obtained answer set against the gold answers, QALD-style:
///
/// * `Correct` — some column's distinct bound values equal the gold set
///   exactly (the system produced *the* answer set, not a superset soup).
/// * `Partial` — some column overlaps the gold set without matching it.
/// * `Wrong` — no gold answer appears anywhere (or the result is empty).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grade {
    /// Some column matches the gold answer set exactly.
    Correct,
    /// Gold answers are present but mixed with extraneous ones (or
    /// incomplete).
    Partial,
    /// No gold answer present.
    Wrong,
}

/// Grade a solution set.
pub fn grade(solutions: &Solutions, gold: &[String]) -> Grade {
    use std::collections::HashSet;
    if gold.is_empty() || solutions.is_empty() {
        return Grade::Wrong;
    }
    let gold_set: HashSet<&str> = gold.iter().map(String::as_str).collect();
    let mut best = Grade::Wrong;
    for col in 0..solutions.vars.len() {
        let values: HashSet<&str> = solutions
            .rows
            .iter()
            .filter_map(|r| r[col].as_ref())
            .map(|t| t.lexical())
            .collect();
        if values.is_empty() {
            continue;
        }
        if values == gold_set {
            return Grade::Correct;
        }
        if values.intersection(&gold_set).next().is_some() {
            best = Grade::Partial;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, DatasetConfig};
    use sapphire_endpoint::{EndpointLimits, LocalEndpoint};

    fn endpoint() -> LocalEndpoint {
        LocalEndpoint::new(
            "dbpedia",
            generate(DatasetConfig::tiny(42)),
            EndpointLimits::warehouse(),
        )
    }

    #[test]
    fn counts_match_the_paper() {
        let ab = appendix_b();
        assert_eq!(ab.len(), 27);
        assert_eq!(
            ab.iter()
                .filter(|q| q.difficulty == Difficulty::Easy)
                .count(),
            10
        );
        assert_eq!(
            ab.iter()
                .filter(|q| q.difficulty == Difficulty::Medium)
                .count(),
            8
        );
        assert_eq!(
            ab.iter()
                .filter(|q| q.difficulty == Difficulty::Difficult)
                .count(),
            9
        );
        assert_eq!(qald_style_50().len(), 50);
    }

    #[test]
    fn every_question_has_gold_answers() {
        let ep = endpoint();
        for q in qald_style_50() {
            let gold = gold_answers(&q, &ep);
            assert!(
                !gold.is_empty(),
                "question {} ({}) has no gold answers",
                q.id,
                q.text
            );
        }
    }

    #[test]
    fn gold_queries_are_selective() {
        let ep = endpoint();
        for q in appendix_b() {
            let gold = gold_answers(&q, &ep);
            assert!(
                gold.len() <= 20,
                "question {} gold set suspiciously large: {}",
                q.id,
                gold.len()
            );
        }
    }

    #[test]
    fn grading_logic() {
        let gold = vec!["a".to_string(), "b".to_string()];
        let full = Solutions {
            vars: vec!["x".into()],
            rows: vec![
                vec![Some(Term::literal("a"))],
                vec![Some(Term::literal("b"))],
            ],
        };
        assert_eq!(grade(&full, &gold), Grade::Correct);
        let part = Solutions {
            vars: vec!["x".into()],
            rows: vec![vec![Some(Term::literal("a"))]],
        };
        assert_eq!(grade(&part, &gold), Grade::Partial);
        // A superset is only partial: the user sees the answers buried in noise.
        let superset = Solutions {
            vars: vec!["x".into()],
            rows: vec![
                vec![Some(Term::literal("a"))],
                vec![Some(Term::literal("b"))],
                vec![Some(Term::literal("noise"))],
            ],
        };
        assert_eq!(grade(&superset, &gold), Grade::Partial);
        let wrong = Solutions {
            vars: vec!["x".into()],
            rows: vec![vec![Some(Term::literal("z"))]],
        };
        assert_eq!(grade(&wrong, &gold), Grade::Wrong);
        assert_eq!(grade(&Solutions::default(), &gold), Grade::Wrong);
    }

    #[test]
    fn ids_are_unique() {
        let all = qald_style_50();
        let mut ids: Vec<&str> = all.iter().map(|q| q.id.as_str()).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before);
    }
}

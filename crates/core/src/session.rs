//! The interactive query-composition session (§4).
//!
//! The Sapphire UI "presents a text box for each part of a SPARQL query":
//! the user fills subject/predicate/object boxes per triple pattern, gets
//! QCM completions while typing, clicks Run, and receives QSM suggestions
//! alongside the answers. This module models that workflow headlessly — it is
//! what the simulated user study drives, replacing the web front-end the
//! paper demonstrates in \[13\].

use sapphire_rdf::{Literal, Term};
use sapphire_sparql::{
    Expr, GraphPattern, OrderKey, Projection, SelectQuery, TermPattern, TriplePattern,
};

use crate::answers::AnswerTable;
use crate::config::LANGUAGE;
use crate::pum::PredictiveUserModel;
use crate::qcm::CompletionResult;
use crate::qsm::{QsmOutput, StructureSuggestion, TermAlternative};

/// The three text boxes of one triple-pattern row.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TripleInput {
    /// Subject box.
    pub subject: String,
    /// Predicate box.
    pub predicate: String,
    /// Object box.
    pub object: String,
}

impl TripleInput {
    /// Convenience constructor.
    pub fn new(s: impl Into<String>, p: impl Into<String>, o: impl Into<String>) -> Self {
        TripleInput {
            subject: s.into(),
            predicate: p.into(),
            object: o.into(),
        }
    }
}

/// Query modifiers entered below the triple boxes (Figure 2: "group by,
/// order by, limit, etc.").
#[derive(Debug, Clone, Default)]
pub struct Modifiers {
    /// SELECT DISTINCT.
    pub distinct: bool,
    /// ORDER BY this variable.
    pub order_by: Option<(String, bool)>,
    /// LIMIT.
    pub limit: Option<usize>,
    /// Aggregate the first projected variable with COUNT.
    pub count: bool,
    /// Raw FILTER expressions ("query modifiers … can be added here if
    /// desired", Figure 2).
    pub filters: Vec<Expr>,
}

/// A problem turning the text boxes into a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// A box that must hold a variable or IRI holds something else.
    InvalidSubject(String),
    /// The predicate box is neither a variable, an IRI, nor a known keyword.
    UnknownPredicate(String),
    /// There are no triple rows.
    EmptyQuery,
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::InvalidSubject(s) => {
                write!(f, "subject must be a ?variable or URI, got {s:?}")
            }
            SessionError::UnknownPredicate(p) => {
                write!(
                    f,
                    "predicate {p:?} matches no variable, URI, or cached predicate"
                )
            }
            SessionError::EmptyQuery => write!(f, "query has no triple patterns"),
        }
    }
}

impl std::error::Error for SessionError {}

/// Result of pressing "Run".
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The answers, wrapped for table interaction.
    pub answers: AnswerTable,
    /// QSM suggestions.
    pub suggestions: QsmOutput,
    /// True if the query executed (even with zero answers).
    pub executed: bool,
}

/// One user's interactive session.
pub struct Session<'a> {
    pum: &'a PredictiveUserModel,
    /// Triple-pattern rows.
    pub triples: Vec<TripleInput>,
    /// Query modifiers.
    pub modifiers: Modifiers,
    attempts: u32,
}

impl<'a> Session<'a> {
    /// Start a session against a PUM.
    pub fn new(pum: &'a PredictiveUserModel) -> Self {
        Session {
            pum,
            triples: vec![TripleInput::default()],
            modifiers: Modifiers::default(),
            attempts: 0,
        }
    }

    /// Rehydrate a session from externally held state (triple rows, modifiers
    /// and the attempt counter). The serving layer stores session state in a
    /// registry and reconstructs a `Session` against the shared model for the
    /// duration of each request, so no per-session model copy ever exists.
    pub fn resume(
        pum: &'a PredictiveUserModel,
        triples: Vec<TripleInput>,
        modifiers: Modifiers,
        attempts: u32,
    ) -> Self {
        let triples = if triples.is_empty() {
            vec![TripleInput::default()]
        } else {
            triples
        };
        Session {
            pum,
            triples,
            modifiers,
            attempts,
        }
    }

    /// Number of times "Run" was clicked — an *attempt* in the user study's
    /// terms (§7.1.2).
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// Fill a triple row.
    pub fn set_row(&mut self, idx: usize, input: TripleInput) {
        if idx >= self.triples.len() {
            self.triples.resize_with(idx + 1, TripleInput::default);
        }
        self.triples[idx] = input;
    }

    /// QCM completion for text being typed into any box.
    pub fn complete(&self, typed: &str) -> CompletionResult {
        self.pum.complete(typed)
    }

    /// Turn the text boxes into a SPARQL query. Keywords in predicate boxes
    /// resolve against the cache (what the UI does when the user picks an
    /// auto-complete suggestion); keywords in object boxes become literals in
    /// the cache language.
    pub fn build_query(&self) -> Result<SelectQuery, SessionError> {
        let rows: Vec<&TripleInput> = self
            .triples
            .iter()
            .filter(|t| {
                !(t.subject.trim().is_empty()
                    && t.predicate.trim().is_empty()
                    && t.object.trim().is_empty())
            })
            .collect();
        if rows.is_empty() {
            return Err(SessionError::EmptyQuery);
        }
        let mut gp = GraphPattern::default();
        for row in rows {
            let subject = parse_subject(&row.subject)?;
            let predicate = self.parse_predicate(&row.predicate)?;
            let object = self.parse_object(&row.object, &predicate);
            gp.triples
                .push(TriplePattern::new(subject, predicate, object));
        }
        gp.filters.extend(self.modifiers.filters.iter().cloned());
        // "All variables are automatically included in the selection by
        // default" (Figure 2).
        let vars = gp.variables();
        let projection = if self.modifiers.count {
            let target = vars.first().cloned();
            Projection::Items(vec![sapphire_sparql::SelectItem::Agg {
                agg: sapphire_sparql::Aggregate::Count {
                    distinct: true,
                    var: target,
                },
                alias: "count".to_string(),
            }])
        } else {
            Projection::Star
        };
        let order_by = match &self.modifiers.order_by {
            Some((var, desc)) => {
                vec![OrderKey {
                    expr: Expr::Var(var.clone()),
                    descending: *desc,
                }]
            }
            None => Vec::new(),
        };
        Ok(SelectQuery {
            distinct: self.modifiers.distinct,
            projection,
            pattern: gp,
            group_by: Vec::new(),
            order_by,
            limit: self.modifiers.limit,
            offset: None,
        })
    }

    /// Click "Run": validate, execute, and gather suggestions.
    pub fn run(&mut self) -> Result<RunResult, SessionError> {
        let query = self.build_query()?;
        self.attempts += 1;
        let outcome = self.pum.run(&query);
        Ok(RunResult {
            answers: AnswerTable::new(outcome.answers),
            suggestions: outcome.suggestions,
            executed: outcome.executed,
        })
    }

    /// Accept a "did you mean" suggestion: update the altered box to the
    /// replacement and return the prefetched answers (§4: prefetching makes
    /// this "almost-instantaneous" — no re-execution happens here).
    pub fn apply_alternative(&mut self, alt: &TermAlternative) -> AnswerTable {
        if let Some(row) = self.triples.get_mut(alt.triple_index) {
            match alt.position {
                crate::qsm::AlteredPosition::Predicate => {
                    if let Term::Iri(iri) = &alt.term {
                        row.predicate = format!("<{iri}>");
                    }
                }
                crate::qsm::AlteredPosition::Object => {
                    row.object = alt.replacement.clone();
                }
            }
        }
        AnswerTable::new(alt.answers.clone())
    }

    /// Accept a structure-relaxation suggestion: replace the whole query (the
    /// one QSM case shown as a full rewritten query, §4) and return the
    /// prefetched answers.
    pub fn apply_relaxation(&mut self, suggestion: &StructureSuggestion) -> AnswerTable {
        self.triples = suggestion
            .relaxed
            .query
            .pattern
            .triples
            .iter()
            .map(|tp| TripleInput {
                subject: pattern_text(&tp.subject),
                predicate: pattern_text(&tp.predicate),
                object: pattern_text(&tp.object),
            })
            .collect();
        AnswerTable::new(suggestion.answers.clone())
    }

    fn parse_predicate(&self, text: &str) -> Result<TermPattern, SessionError> {
        let t = text.trim();
        if t.is_empty() {
            return Err(SessionError::UnknownPredicate(text.to_string()));
        }
        if let Some(var) = t.strip_prefix('?') {
            return Ok(TermPattern::var(var));
        }
        if matches!(t, "a" | "type" | "is a" | "rdf:type") {
            return Ok(TermPattern::iri(sapphire_rdf::vocab::rdf::TYPE));
        }
        if let Some(iri) = as_iri(t) {
            return Ok(TermPattern::iri(iri));
        }
        // Keyword: resolve against cached predicates, best JW match first.
        let cache = self.pum.qcm().cache();
        if let Some(idx) = cache.best_predicate(t, 0.85) {
            return Ok(TermPattern::iri(cache.predicates[idx].iri.clone()));
        }
        // Fall back to substring completion.
        let matches = cache.tree_lookup(t, 1);
        if let Some(m) = matches.into_iter().find(|m| m.predicate_iri.is_some()) {
            return Ok(TermPattern::iri(m.predicate_iri.unwrap()));
        }
        Err(SessionError::UnknownPredicate(text.to_string()))
    }

    fn parse_object(&self, text: &str, predicate: &TermPattern) -> TermPattern {
        let t = text.trim();
        if let Some(var) = t.strip_prefix('?') {
            return TermPattern::var(var);
        }
        if let Some(iri) = as_iri(t) {
            return TermPattern::iri(iri);
        }
        // In an rdf:type row, the object keyword names a *class*
        // ("scientist" in the paper's intro example) — resolve it against the
        // classes discovered during initialization.
        if predicate.as_term().and_then(Term::as_iri) == Some(sapphire_rdf::vocab::rdf::TYPE) {
            let cache = self.pum.qcm().cache();
            if let Some(idx) = cache.best_class(t, 0.8) {
                return TermPattern::iri(cache.classes[idx].iri.clone());
            }
        }
        if let Ok(n) = t.parse::<i64>() {
            return TermPattern::Term(Term::Literal(Literal::integer(n)));
        }
        // Keywords become literals in the cache language (§5.1: Sapphire maps
        // keywords to literals).
        TermPattern::Term(Term::Literal(Literal::lang_tagged(t, LANGUAGE)))
    }
}

fn parse_subject(text: &str) -> Result<TermPattern, SessionError> {
    let t = text.trim();
    if let Some(var) = t.strip_prefix('?') {
        return Ok(TermPattern::var(var));
    }
    if let Some(iri) = as_iri(t) {
        return Ok(TermPattern::iri(iri));
    }
    Err(SessionError::InvalidSubject(text.to_string()))
}

/// Accept `<http://…>` or bare `http://…` / `https://…` as IRIs.
fn as_iri(t: &str) -> Option<String> {
    if let Some(stripped) = t.strip_prefix('<') {
        return stripped.strip_suffix('>').map(str::to_string);
    }
    if t.starts_with("http://") || t.starts_with("https://") {
        return Some(t.to_string());
    }
    None
}

fn pattern_text(p: &TermPattern) -> String {
    match p {
        TermPattern::Var(v) => format!("?{v}"),
        TermPattern::Term(Term::Iri(iri)) => format!("<{iri}>"),
        TermPattern::Term(Term::Literal(l)) => l.value.clone(),
        TermPattern::Term(Term::Blank(b)) => format!("_:{b}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SapphireConfig;
    use crate::init::InitMode;
    use sapphire_endpoint::{Endpoint, EndpointLimits, LocalEndpoint};
    use sapphire_sparql::turtle;
    use sapphire_text::Lexicon;
    use std::sync::Arc;

    const DATA: &str = r#"
res:JFK a dbo:Person ; dbo:surname "Kennedy"@en ; dbo:name "John F. Kennedy"@en .
res:RFK a dbo:Person ; dbo:surname "Kennedy"@en ; dbo:name "Robert F. Kennedy"@en .
res:Jack a dbo:Person ; dbo:surname "Kerry"@en ; dbo:name "John Kerry"@en .
"#;

    fn pum() -> PredictiveUserModel {
        pum_over(DATA)
    }

    fn pum_over(data: &str) -> PredictiveUserModel {
        let ep: Arc<dyn Endpoint> = Arc::new(LocalEndpoint::new(
            "dbpedia",
            turtle::parse(data).unwrap(),
            EndpointLimits::warehouse(),
        ));
        PredictiveUserModel::initialize(
            vec![ep],
            Lexicon::dbpedia_default(),
            SapphireConfig::for_tests(),
            InitMode::Federated,
        )
        .unwrap()
    }

    #[test]
    fn figure_2_workflow_kennedys_to_kennedy() {
        let p = pum();
        let mut session = Session::new(&p);
        session.set_row(0, TripleInput::new("?person", "surname", "Kennedys"));
        let result = session.run().unwrap();
        assert!(result.executed);
        assert_eq!(result.answers.total_rows(), 0);
        let alt = result
            .suggestions
            .alternatives
            .iter()
            .find(|a| a.replacement == "Kennedy")
            .expect("Kennedy suggestion");
        // Accept the suggestion: the box updates, answers are instant.
        let table = session.apply_alternative(alt);
        assert_eq!(session.triples[0].object, "Kennedy");
        assert_eq!(table.total_rows(), 2);
        assert_eq!(session.attempts(), 1);
        // An edit aimed past the last row (the index may have come off the
        // wire) changes no box and does not panic.
        let stray = TermAlternative {
            triple_index: 9,
            ..alt.clone()
        };
        let rows = session.triples.clone();
        session.apply_alternative(&stray);
        assert_eq!(session.triples, rows);
    }

    #[test]
    fn keyword_predicate_resolves_via_cache() {
        let p = pum();
        let session = Session::new(&p);
        let mut s2 = Session::new(&p);
        s2.set_row(0, TripleInput::new("?x", "surname", "?y"));
        let q = s2.build_query().unwrap();
        let TermPattern::Term(Term::Iri(iri)) = &q.pattern.triples[0].predicate else {
            panic!()
        };
        assert_eq!(iri, "http://dbpedia.org/ontology/surname");
        drop(session);
    }

    /// A keyword no predicate is Jaro-Winkler-close to falls back to the
    /// tree's first substring match, and there a predicate's surface form
    /// outranks a shorter literal: `completion_rank` orders kind before
    /// length.
    #[test]
    fn keyword_fallback_prefers_a_predicate_to_a_shorter_literal() {
        let p = pum_over(
            r#"res:JFK a dbo:Person ; dbo:birthPlace "Brookline"@en ; dbo:name "placebo"@en ."#,
        );
        let cache = p.qcm().cache();
        assert_eq!(cache.best_predicate("place", 0.85), None);
        let matches = cache.tree_lookup("place", 2);
        let matches: Vec<_> = (matches.iter())
            .map(|m| (m.text.as_str(), m.predicate_iri.is_some()))
            .collect();
        assert_eq!(matches, [("birth place", true), ("placebo", false)]);
        let mut s = Session::new(&p);
        s.set_row(0, TripleInput::new("?x", "place", "?y"));
        let q = s.build_query().unwrap();
        assert_eq!(
            q.pattern.triples[0].predicate,
            TermPattern::iri("http://dbpedia.org/ontology/birthPlace")
        );
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let p = pum();
        let mut s = Session::new(&p);
        s.set_row(0, TripleInput::new("not a uri", "surname", "x"));
        assert!(matches!(
            s.build_query(),
            Err(SessionError::InvalidSubject(_))
        ));
        s.set_row(0, TripleInput::new("?x", "zzzqqq", "x"));
        assert!(matches!(
            s.build_query(),
            Err(SessionError::UnknownPredicate(_))
        ));
        let mut empty = Session::new(&p);
        empty.triples.clear();
        assert!(matches!(empty.build_query(), Err(SessionError::EmptyQuery)));
    }

    #[test]
    fn modifiers_shape_the_query() {
        let p = pum();
        let mut s = Session::new(&p);
        s.set_row(0, TripleInput::new("?x", "surname", "?n"));
        s.modifiers.distinct = true;
        s.modifiers.limit = Some(5);
        s.modifiers.order_by = Some(("n".into(), true));
        let q = s.build_query().unwrap();
        assert!(q.distinct);
        assert_eq!(q.limit, Some(5));
        assert!(q.order_by[0].descending);
    }

    #[test]
    fn count_modifier_counts() {
        let p = pum();
        let mut s = Session::new(&p);
        s.set_row(0, TripleInput::new("?x", "surname", "Kennedy"));
        s.modifiers.count = true;
        let r = s.run().unwrap();
        assert_eq!(r.answers.solutions().sole_value().unwrap().lexical(), "2");
    }

    #[test]
    fn completion_passthrough() {
        let p = pum();
        let s = Session::new(&p);
        assert!(s
            .complete("Kenn")
            .suggestions
            .iter()
            .any(|c| c.text.contains("Kennedy")));
    }
}

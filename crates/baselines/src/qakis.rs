//! QAKiS \[7\] — relational-pattern question answering.
//!
//! The original extracts from Wikipedia "different ways of expressing
//! relations in natural language" and matches question fragments against
//! them to build a SPARQL query. Our reimplementation harvests the
//! relation-pattern store from the dataset's own predicate surface forms plus
//! the verbalization lexicon (the closest offline analogue), then follows the
//! same answer pipeline: spot the entity mention, match the remaining words
//! against a relation pattern, emit a single-relation SPARQL query.
//!
//! Like the original, it is strong on factoids ("time zone of Salt Lake
//! City") and has no mechanism for multi-hop joins, filters, aggregates, or
//! superlatives — the questions where the paper shows Sapphire pulling ahead.

use std::collections::BTreeMap;

use sapphire_endpoint::{Endpoint, FederatedProcessor};
use sapphire_sparql::Solutions;
use sapphire_text::{jaro_winkler_ci, keywords, normalize, surface_form, Lexicon};

use crate::entity_index::EntityIndex;
use sapphire_datagen::userstudy::NlQaSystem;

/// The QAKiS reimplementation.
pub struct QaKis {
    fed: FederatedProcessor,
    entities: EntityIndex,
    /// Relation pattern (normalized phrase) → predicate IRIs, in pattern
    /// order, so the eager fallback's ties go to the first pattern by text.
    patterns: BTreeMap<String, Vec<String>>,
}

const STOPWORDS: &[&str] = &[
    "what", "which", "who", "whom", "whose", "where", "when", "how", "many", "much", "is", "are",
    "was", "were", "the", "a", "an", "of", "in", "on", "at", "by", "to", "for", "does", "do",
    "did", "s", "it", "that", "and",
];

impl QaKis {
    /// Build the pattern store from an endpoint's vocabulary.
    pub fn build(endpoint: std::sync::Arc<dyn Endpoint>, lexicon: &Lexicon) -> Self {
        let entities = EntityIndex::build(endpoint.as_ref());
        let mut patterns: BTreeMap<String, Vec<String>> = BTreeMap::new();
        // Harvest predicates with Q1 (the same query Sapphire uses).
        let preds = endpoint
            .select("SELECT DISTINCT ?p (COUNT(*) AS ?frequency) WHERE { ?s ?p ?o } GROUP BY ?p ORDER BY DESC(?frequency)")
            .map(|s| s.values("p").map(|t| t.lexical().to_string()).collect::<Vec<_>>())
            .unwrap_or_default();
        for iri in preds {
            let surface = surface_form(&iri);
            for verbalization in lexicon.get_lexica(&surface) {
                patterns.entry(verbalization).or_default().push(iri.clone());
            }
        }
        QaKis {
            fed: FederatedProcessor::single(endpoint),
            entities,
            patterns,
        }
    }

    /// Match the non-entity words of a question against the pattern store.
    fn match_relation(&self, residue: &[String]) -> Option<&str> {
        if residue.is_empty() {
            return None;
        }
        let phrase = residue.join(" ");
        // Exact phrase, then sub-phrases, then fuzzy.
        if let Some(p) = self.patterns.get(&phrase) {
            return p.first().map(String::as_str);
        }
        for window in (1..residue.len()).rev() {
            for start in 0..=residue.len() - window {
                let sub = residue[start..start + window].join(" ");
                if let Some(p) = self.patterns.get(&sub) {
                    return p.first().map(String::as_str);
                }
            }
        }
        // Eager fallback — the source of QAKiS's characteristic wrong
        // answers: any word overlap between the residue and a pattern is
        // taken as a relation match, best overlap first (ties broken by JW,
        // then by pattern text).
        // Natural language is "inherently ambiguous" (§2), and QAKiS guesses.
        let mut best: Option<(f64, &str)> = None;
        for (pat, preds) in &self.patterns {
            let pat_words: Vec<&str> = pat.split(' ').collect();
            let overlap = residue
                .iter()
                .filter(|w| pat_words.contains(&w.as_str()))
                .count();
            if overlap == 0 {
                continue;
            }
            let score = overlap as f64 + jaro_winkler_ci(&phrase, pat);
            if best.is_none_or(|(b, _)| score > b) {
                best = preds.first().map(|p| (score, p.as_str()));
            }
        }
        best.map(|(_, p)| p)
    }
}

impl NlQaSystem for QaKis {
    fn name(&self) -> &str {
        "QAKiS"
    }

    fn answer(&self, question: &str) -> Solutions {
        // 1. Spot the entity mention.
        let Some((mention, entities)) = self.entities.longest_mention(question) else {
            return Solutions::default();
        };
        let Some(entity) = entities.first() else {
            return Solutions::default();
        };

        // 2. The residue (minus stopwords and the mention) names the relation.
        let mention_words: Vec<String> = keywords(&mention);
        let residue: Vec<String> = keywords(&normalize(question))
            .into_iter()
            .filter(|w| !STOPWORDS.contains(&w.as_str()) && !mention_words.contains(w))
            .collect();
        if let Some(predicate) = self.match_relation(&residue) {
            // 3. Single-relation query, forward then inverse.
            let fwd = format!("SELECT ?o WHERE {{ <{entity}> <{predicate}> ?o }}");
            if let Ok(s) = self.fed.select(&fwd) {
                if !s.is_empty() {
                    return s;
                }
            }
            let inv = format!("SELECT ?s WHERE {{ ?s <{predicate}> <{entity}> }}");
            if let Ok(s) = self.fed.select(&inv) {
                if !s.is_empty() {
                    return s;
                }
            }
        }
        // 4. No (working) relation match: answer with *some* facts about the
        // recognized entity rather than staying silent — real QAKiS processed
        // 80% of QALD-5 while answering only 35% correctly, and this guessy
        // behaviour is where the paper's "low precision of NL systems"
        // observation comes from.
        let guess = format!("SELECT ?o WHERE {{ <{entity}> ?p ?o . FILTER(!isIRI(?o)) }} LIMIT 3");
        if let Ok(s) = self.fed.select(&guess) {
            if !s.is_empty() {
                return s;
            }
        }
        Solutions::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapphire_datagen::{generate, DatasetConfig};
    use sapphire_endpoint::{EndpointLimits, LocalEndpoint};
    use std::sync::Arc;

    fn qakis() -> QaKis {
        let ep: Arc<dyn Endpoint> = Arc::new(LocalEndpoint::new(
            "dbpedia",
            generate(DatasetConfig::tiny(42)),
            EndpointLimits::warehouse(),
        ));
        QaKis::build(ep, &Lexicon::dbpedia_default())
    }

    #[test]
    fn answers_factoid_questions() {
        let q = qakis();
        let s = q.answer("What is the time zone of Salt Lake City?");
        assert_eq!(s.len(), 1);
        assert_eq!(s.rows[0][0].as_ref().unwrap().lexical(), "UTC-07:00");
    }

    #[test]
    fn answers_via_lexicon_verbalization() {
        let q = qakis();
        // "wife" is not a predicate; the lexicon maps it to spouse.
        let s = q.answer("Who is the wife of Tom Hanks?");
        assert_eq!(s.len(), 1);
        assert!(s.rows[0][0]
            .as_ref()
            .unwrap()
            .lexical()
            .ends_with("Rita_Wilson"));
    }

    #[test]
    fn inverse_direction() {
        let q = qakis();
        // "Who created Wikipedia?" — creator is forward from Wikipedia.
        let s = q.answer("Who created Wikipedia?");
        assert!(!s.is_empty());
    }

    #[test]
    fn fails_on_multi_hop() {
        let q = qakis();
        // Needs spouse → parent chain: out of QAKiS's league.
        let s = q.answer("Who are the parents of the wife of Juan Carlos I?");
        // Either no answer or a wrong single-hop answer — never the gold parents.
        let has_gold = s
            .rows
            .iter()
            .flatten()
            .flatten()
            .any(|t| t.lexical().contains("Paul_of_Greece"));
        assert!(!has_gold);
    }

    #[test]
    fn eager_fallback_ties_go_to_the_first_pattern_by_text() {
        // Eight patterns overlap the residue in one word each and differ
        // from its phrase in one letter at the same place: equal overlap,
        // equal Jaro-Winkler score.
        let mut q = qakis();
        q.patterns = ('a'..='h')
            .rev()
            .map(|c| (format!("born {c}"), vec![format!("http://x/p{c}")]))
            .collect();
        let residue = ["born".to_string(), "z".to_string()];
        assert_eq!(
            jaro_winkler_ci("born z", "born a"),
            jaro_winkler_ci("born z", "born h")
        );
        assert_eq!(q.match_relation(&residue), Some("http://x/pa"));
    }

    #[test]
    fn no_entity_no_answer() {
        let q = qakis();
        assert!(q.answer("What is the meaning of life?").is_empty());
    }
}

//! A label → entity index shared by the QA baselines.
//!
//! QAKiS and KBQA both need to spot entity mentions in natural-language
//! questions. The originals mine Wikipedia anchors; we build the analogue by
//! harvesting the dataset's own label predicates through the endpoint.

use std::collections::HashMap;

use sapphire_endpoint::Endpoint;
use sapphire_text::normalize;

/// Maps normalized labels to entity IRIs.
#[derive(Debug, Default, Clone)]
pub struct EntityIndex {
    labels: HashMap<String, Vec<String>>,
}

/// Predicates harvested as entity labels.
pub const LABEL_PREDICATES: &[&str] = &[
    "http://dbpedia.org/ontology/name",
    "http://www.w3.org/2000/01/rdf-schema#label",
    "http://dbpedia.org/ontology/nickname",
    "http://dbpedia.org/ontology/surname",
];

impl EntityIndex {
    /// Harvest labels from an endpoint.
    pub fn build(endpoint: &dyn Endpoint) -> Self {
        let mut index = EntityIndex::default();
        for pred in LABEL_PREDICATES {
            let q = format!("SELECT ?s ?o WHERE {{ ?s <{pred}> ?o }}");
            let Ok(sols) = endpoint.select(&q) else {
                continue;
            };
            for r in 0..sols.len() {
                let (Some(s), Some(o)) = (sols.get(r, "s"), sols.get(r, "o")) else {
                    continue;
                };
                if !o.is_literal() {
                    continue;
                }
                let key = normalize(o.lexical());
                if key.is_empty() {
                    continue;
                }
                let entry = index.labels.entry(key).or_default();
                let iri = s.lexical().to_string();
                if !entry.contains(&iri) {
                    entry.push(iri);
                }
            }
        }
        index
    }

    /// Entities whose label exactly matches the normalized phrase.
    pub fn lookup(&self, phrase: &str) -> &[String] {
        self.labels
            .get(&normalize(phrase))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Find the longest label occurring as a word subsequence of the
    /// question; returns `(matched words, entities)`.
    pub fn longest_mention<'a>(&'a self, question: &str) -> Option<(String, &'a [String])> {
        let words: Vec<String> = sapphire_text::keywords(question);
        let mut best: Option<(String, &[String])> = None;
        for start in 0..words.len() {
            for end in (start + 1..=words.len()).rev() {
                let phrase = words[start..end].join(" ");
                if let Some(entities) = self.labels.get(&phrase) {
                    let better = match &best {
                        None => true,
                        Some((b, _)) => phrase.len() > b.len(),
                    };
                    if better {
                        best = Some((phrase.clone(), entities.as_slice()));
                    }
                }
            }
        }
        best
    }

    /// Number of distinct labels.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True if the index is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapphire_endpoint::{EndpointLimits, LocalEndpoint};

    fn endpoint() -> LocalEndpoint {
        let g = sapphire_sparql::turtle::parse(
            r#"
res:JFK a dbo:Person ; dbo:name "John F. Kennedy"@en ; dbo:surname "Kennedy"@en .
res:SLC a dbo:City ; dbo:name "Salt Lake City"@en .
"#,
        )
        .unwrap();
        LocalEndpoint::new("t", g, EndpointLimits::warehouse())
    }

    #[test]
    fn build_and_lookup() {
        let idx = EntityIndex::build(&endpoint());
        assert!(!idx.is_empty());
        assert_eq!(
            idx.lookup("john f. kennedy"),
            &["http://dbpedia.org/resource/JFK".to_string()]
        );
        assert_eq!(idx.lookup("Salt  Lake CITY").len(), 1);
        assert!(idx.lookup("atlantis").is_empty());
    }

    #[test]
    fn longest_mention_prefers_longer_labels() {
        let idx = EntityIndex::build(&endpoint());
        let (phrase, ents) = idx
            .longest_mention("What is the time zone of Salt Lake City?")
            .expect("mention found");
        assert_eq!(phrase, "salt lake city");
        assert_eq!(ents.len(), 1);
        // "Kennedy" (surname) vs "John F. Kennedy" (name): longer wins.
        let (phrase, _) = idx
            .longest_mention("Who was John F. Kennedy's vice president?")
            .unwrap();
        assert_eq!(phrase, "john f kennedy");
    }
}

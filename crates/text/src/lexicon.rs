//! A Lemon-style verbalization lexicon.
//!
//! Algorithm 2 (§6.2.1) calls `Lemon.getLexica(e)` to find how a predicate is
//! "verbalized in natural language. For example, 'wife' or 'husband' can be
//! verbalized by using 'spouse' instead." The paper uses the DBpedia Lemon
//! lexicon [8, 26]; the live lexicon is a data artifact we cannot ship, so we
//! substitute a curated synonym-group lexicon over the synthetic dataset's
//! vocabulary. The QSM only consumes the `getLexica(term) → verbalizations`
//! contract, which this reproduces exactly.

use std::collections::HashMap;

use crate::tokenize::normalize;

/// A verbalization lexicon: groups of phrases that verbalize one another.
#[derive(Debug, Default, Clone)]
pub struct Lexicon {
    /// Normalized phrase → group index.
    membership: HashMap<String, usize>,
    /// Groups of phrases (normalized).
    groups: Vec<Vec<String>>,
}

impl Lexicon {
    /// An empty lexicon.
    pub fn new() -> Self {
        Self::default()
    }

    /// The default lexicon for the synthetic DBpedia-like vocabulary,
    /// standing in for the DBpedia Lemon lexicon.
    pub fn dbpedia_default() -> Self {
        let mut lex = Lexicon::new();
        let groups: &[&[&str]] = &[
            &["spouse", "wife", "husband", "married to", "partner"],
            &[
                "alma mater",
                "graduated from",
                "studied at",
                "educated at",
                "school attended",
            ],
            &["birth place", "born in", "place of birth", "birthplace"],
            &["death place", "died in", "place of death"],
            &[
                "birth date",
                "born on",
                "date of birth",
                "birthday",
                "birthdays",
            ],
            &["death date", "died on", "date of death"],
            &["author", "writer", "written by", "wrote"],
            &["director", "directed by", "film director"],
            &["starring", "stars", "actor in", "acted in", "cast member"],
            &["publisher", "published by", "publishing house"],
            &[
                "population",
                "inhabitants",
                "people living",
                "number of people",
                "populous",
            ],
            &["country", "nation", "located in country"],
            &["capital", "capital city"],
            &["time zone", "timezone"],
            &["currency", "money"],
            &["designer", "designed by", "architect"],
            &["creator", "created by", "founder", "founded by"],
            &["child", "children", "son", "daughter"],
            &["parent", "parents", "father", "mother"],
            &["vice president", "vp", "deputy"],
            &[
                "instrument",
                "instruments",
                "plays instrument",
                "played instruments",
            ],
            &["budget", "cost", "production budget"],
            &["number of pages", "pages", "page count"],
            &["depth", "deep"],
            &["industry", "sector", "business", "works in"],
            &["affiliation", "affiliated with", "member of"],
            &["located in", "location", "situated in", "state", "lies in"],
            &[
                "name",
                "label",
                "called",
                "surname",
                "family name",
                "nickname",
            ],
            &["type", "kind", "category", "is a"],
            &["chess player", "chess grandmaster"],
        ];
        for group in groups {
            lex.add_group(group.iter().copied());
        }
        lex
    }

    /// Register a group of mutually-substitutable verbalizations. Phrases are
    /// normalized; a phrase already present merges its old and new groups.
    pub fn add_group<'a, I: IntoIterator<Item = &'a str>>(&mut self, phrases: I) {
        let normalized: Vec<String> = phrases.into_iter().map(normalize).collect();
        // Merge with any existing group sharing a phrase.
        let existing = normalized
            .iter()
            .find_map(|p| self.membership.get(p).copied());
        let idx = match existing {
            Some(i) => i,
            None => {
                self.groups.push(Vec::new());
                self.groups.len() - 1
            }
        };
        for p in normalized {
            if !self.groups[idx].contains(&p) {
                self.membership.insert(p.clone(), idx);
                self.groups[idx].push(p);
            }
        }
    }

    /// `getLexica(term)`: all verbalizations of `term`'s group, the queried
    /// term itself first. An unknown term verbalizes only as itself.
    pub fn get_lexica(&self, term: &str) -> Vec<String> {
        let n = normalize(term);
        let mut out = vec![n.clone()];
        if let Some(&idx) = self.membership.get(&n) {
            for p in &self.groups[idx] {
                if *p != n {
                    out.push(p.clone());
                }
            }
        }
        out
    }

    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_lexicon_spouse_group() {
        let lex = Lexicon::dbpedia_default();
        let lexica = lex.get_lexica("wife");
        assert!(lexica.contains(&"spouse".to_string()));
        assert!(lexica.contains(&"husband".to_string()));
        assert_eq!(lexica[0], "wife", "queried term must come first");
    }

    #[test]
    fn normalization_applies() {
        let lex = Lexicon::dbpedia_default();
        let lexica = lex.get_lexica("Alma  Mater");
        assert_eq!(lexica[0], "alma mater");
        assert!(lexica.contains(&"graduated from".to_string()));
        let lexica = lex.get_lexica("almaMater".replace("M", " m").as_str());
        assert!(lexica.contains(&"studied at".to_string()));
    }

    #[test]
    fn unknown_term_is_self_only() {
        let lex = Lexicon::dbpedia_default();
        assert_eq!(lex.get_lexica("zorble"), vec!["zorble".to_string()]);
        assert_eq!(lex.get_lexica("Zorble"), vec!["zorble".to_string()]);
    }

    #[test]
    fn add_group_merges_overlapping() {
        let mut lex = Lexicon::new();
        lex.add_group(["a", "b"]);
        lex.add_group(["b", "c"]);
        assert_eq!(lex.get_lexica("a"), ["a", "b", "c"]);
        assert_eq!(lex.group_count(), 1);
    }

    #[test]
    fn groups_are_disjoint_unless_merged() {
        let mut lex = Lexicon::new();
        lex.add_group(["x", "y"]);
        lex.add_group(["p", "q"]);
        assert_eq!(lex.get_lexica("x"), ["x", "y"]);
        assert_eq!(lex.get_lexica("p"), ["p", "q"]);
        assert_eq!(lex.group_count(), 2);
    }
}

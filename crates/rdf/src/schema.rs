//! The RDFS class hierarchy that §5.1's literal retrieval walks.
//!
//! Sapphire partitions literal retrieval along the `rdfs:subClassOf`
//! hierarchy: it starts at the root classes and, whenever a query on a class
//! times out, descends to that class's direct subclasses. The walk needs
//! three things of the hierarchy — its roots, each class's subclasses, and
//! every class it names — and this module keeps exactly those, built from
//! the answers of initialization query Q2.

use std::collections::{HashMap, HashSet};

/// The forest of class IRIs that §5.1's top-down walk descends, induced by
/// `rdfs:subClassOf` edges (`child rdfs:subClassOf parent`).
#[derive(Debug, Default, Clone)]
pub struct ClassHierarchy {
    children: HashMap<String, Vec<String>>,
    /// Classes with a recorded superclass: every class but the roots.
    has_parent: HashSet<String>,
    classes: HashSet<String>,
}

impl ClassHierarchy {
    /// Record `sub rdfs:subClassOf sup`.
    pub fn add_edge(&mut self, sub: String, sup: String) {
        if sub == sup {
            // Reflexive subClassOf statements add no structure.
            self.classes.insert(sub);
            return;
        }
        self.classes.insert(sub.clone());
        self.classes.insert(sup.clone());
        let children = self.children.entry(sup).or_default();
        if !children.contains(&sub) {
            children.push(sub.clone());
        }
        self.has_parent.insert(sub);
    }

    /// All known classes.
    pub fn classes(&self) -> impl Iterator<Item = &str> {
        self.classes.iter().map(String::as_str)
    }

    /// True if the hierarchy has no classes.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Root classes, sorted: classes with no recorded superclass. These are
    /// the starting points for Sapphire's top-down literal retrieval.
    pub fn roots(&self) -> Vec<&str> {
        let mut roots: Vec<&str> = self
            .classes
            .difference(&self.has_parent)
            .map(String::as_str)
            .collect();
        roots.sort_unstable();
        roots
    }

    /// Direct subclasses of `class` ("the next level of the class hierarchy,
    /// which contains smaller classes" — §5.1).
    pub fn subclasses(&self, class: &str) -> &[String] {
        self.children.get(class).map(Vec::as_slice).unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy(edges: &[(&str, &str)]) -> ClassHierarchy {
        let mut h = ClassHierarchy::default();
        for (sub, sup) in edges {
            h.add_edge(sub.to_string(), sup.to_string());
        }
        h
    }

    fn sample() -> ClassHierarchy {
        // Thing ── Person ── Scientist
        //      │          └─ Politician
        //      └─ Place ──── City
        hierarchy(&[
            ("Person", "Thing"),
            ("Place", "Thing"),
            ("Scientist", "Person"),
            ("Politician", "Person"),
            ("City", "Place"),
        ])
    }

    #[test]
    fn roots_and_subclasses() {
        let h = sample();
        assert_eq!(h.roots(), vec!["Thing"]);
        let mut subs: Vec<_> = h.subclasses("Person").to_vec();
        subs.sort();
        assert_eq!(subs, vec!["Politician", "Scientist"]);
        assert!(h.subclasses("City").is_empty());
    }

    #[test]
    fn diamond_appears_once() {
        let mut h = sample();
        // Scientist also under Place (a nonsense diamond, but legal RDFS).
        h.add_edge("Scientist".into(), "Place".into());
        h.add_edge("Scientist".into(), "Place".into());
        assert_eq!(h.classes().count(), 6);
        assert_eq!(h.roots(), vec!["Thing"]);
        assert_eq!(h.subclasses("Place"), ["City", "Scientist"]);
    }

    #[test]
    fn self_edge_is_ignored() {
        let mut h = ClassHierarchy::default();
        assert!(h.is_empty());
        h.add_edge("A".into(), "A".into());
        assert_eq!(h.classes().collect::<Vec<_>>(), vec!["A"]);
        assert_eq!(h.roots(), vec!["A"]);
        assert!(h.subclasses("A").is_empty());
    }

    #[test]
    fn forest_with_two_roots() {
        let h = hierarchy(&[("B", "A"), ("D", "C")]);
        assert_eq!(h.roots(), vec!["A", "C"]);
    }
}

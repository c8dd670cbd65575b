//! RDFS class-hierarchy utilities (§5.1).
//!
//! Sapphire partitions literal retrieval by walking the `rdfs:subClassOf`
//! hierarchy from roots to leaves, descending a level whenever a query on a
//! class times out. This module builds that hierarchy from query answers.

use std::collections::{HashMap, HashSet, VecDeque};

/// A class hierarchy: a forest over class IRIs induced by `rdfs:subClassOf`.
///
/// Edges run child → parent in RDF (`child rdfs:subClassOf parent`); the
/// hierarchy stores both directions for traversal.
#[derive(Debug, Default, Clone)]
pub struct ClassHierarchy {
    children: HashMap<String, Vec<String>>,
    parents: HashMap<String, Vec<String>>,
    classes: HashSet<String>,
}

impl ClassHierarchy {
    /// Build a hierarchy from `(class, superclass)` pairs — the answer shape
    /// of initialization query Q2.
    pub fn from_pairs<I, S>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (S, S)>,
        S: Into<String>,
    {
        let mut h = ClassHierarchy::default();
        for (sub, sup) in pairs {
            h.add_edge(sub.into(), sup.into());
        }
        h
    }

    /// Record `sub rdfs:subClassOf sup`.
    pub fn add_edge(&mut self, sub: String, sup: String) {
        if sub == sup {
            // Reflexive subClassOf statements add no structure.
            self.classes.insert(sub);
            return;
        }
        self.classes.insert(sub.clone());
        self.classes.insert(sup.clone());
        let children = self.children.entry(sup.clone()).or_default();
        if !children.contains(&sub) {
            children.push(sub.clone());
        }
        let parents = self.parents.entry(sub).or_default();
        if !parents.contains(&sup) {
            parents.push(sup);
        }
    }

    /// All known classes.
    pub fn classes(&self) -> impl Iterator<Item = &str> {
        self.classes.iter().map(String::as_str)
    }

    /// Number of known classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// True if the hierarchy has no classes.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Root classes: classes with no recorded superclass. These are the
    /// starting points for Sapphire's top-down literal retrieval.
    pub fn roots(&self) -> Vec<&str> {
        let mut roots: Vec<&str> = self
            .classes
            .iter()
            .filter(|c| !self.parents.contains_key(*c))
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

    /// Direct superclasses of `class`.
    pub fn superclasses(&self, class: &str) -> &[String] {
        self.parents.get(class).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All descendants of `class` (excluding itself), breadth-first.
    pub fn descendants(&self, class: &str) -> Vec<String> {
        let mut seen = HashSet::new();
        let mut queue: VecDeque<&str> = VecDeque::new();
        queue.push_back(class);
        let mut out = Vec::new();
        while let Some(c) = queue.pop_front() {
            for child in self.subclasses(c) {
                if seen.insert(child.clone()) {
                    out.push(child.clone());
                    queue.push_back(child);
                }
            }
        }
        out
    }

    /// True if `sub` is a (transitive) subclass of `sup`.
    pub fn is_subclass_of(&self, sub: &str, sup: &str) -> bool {
        if sub == sup {
            return true;
        }
        let mut seen = HashSet::new();
        let mut queue: VecDeque<&str> = VecDeque::new();
        queue.push_back(sub);
        while let Some(c) = queue.pop_front() {
            for parent in self.superclasses(c) {
                if parent == sup {
                    return true;
                }
                if seen.insert(parent.clone()) {
                    queue.push_back(parent);
                }
            }
        }
        false
    }

    /// Breadth-first levels starting from the roots: level 0 is the roots,
    /// level 1 their direct subclasses, and so on. Classes reachable from
    /// multiple parents appear at their shallowest level only.
    pub fn levels(&self) -> Vec<Vec<String>> {
        let mut levels: Vec<Vec<String>> = Vec::new();
        let mut seen: HashSet<String> = HashSet::new();
        let mut frontier: Vec<String> = self.roots().into_iter().map(str::to_string).collect();
        for c in &frontier {
            seen.insert(c.clone());
        }
        while !frontier.is_empty() {
            levels.push(frontier.clone());
            let mut next = Vec::new();
            for c in &frontier {
                for child in self.subclasses(c) {
                    if seen.insert(child.clone()) {
                        next.push(child.clone());
                    }
                }
            }
            next.sort_unstable();
            frontier = next;
        }
        levels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ClassHierarchy {
        // Thing ── Person ── Scientist
        //      │          └─ Politician
        //      └─ Place ──── City
        ClassHierarchy::from_pairs(vec![
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
    fn transitive_subclass() {
        let h = sample();
        assert!(h.is_subclass_of("Scientist", "Thing"));
        assert!(h.is_subclass_of("Scientist", "Person"));
        assert!(h.is_subclass_of("Scientist", "Scientist"));
        assert!(!h.is_subclass_of("Scientist", "Place"));
        assert!(!h.is_subclass_of("Thing", "Person"));
    }

    #[test]
    fn descendants_bfs() {
        let h = sample();
        let d = h.descendants("Thing");
        assert_eq!(d.len(), 5);
        // BFS: direct children come before grandchildren.
        let person_pos = d.iter().position(|c| c == "Person").unwrap();
        let scientist_pos = d.iter().position(|c| c == "Scientist").unwrap();
        assert!(person_pos < scientist_pos);
    }

    #[test]
    fn levels_are_shallowest_first() {
        let h = sample();
        let levels = h.levels();
        assert_eq!(levels.len(), 3);
        assert_eq!(levels[0], vec!["Thing"]);
        assert_eq!(levels[1], vec!["Person", "Place"]);
        assert_eq!(levels[2], vec!["City", "Politician", "Scientist"]);
    }

    #[test]
    fn diamond_appears_once() {
        let mut h = sample();
        // Scientist also under Place (a nonsense diamond, but legal RDFS).
        h.add_edge("Scientist".into(), "Place".into());
        let levels = h.levels();
        let total: usize = levels.iter().map(Vec::len).sum();
        assert_eq!(total, h.len());
    }

    #[test]
    fn self_edge_is_ignored() {
        let mut h = ClassHierarchy::default();
        h.add_edge("A".into(), "A".into());
        assert_eq!(h.len(), 1);
        assert_eq!(h.roots(), vec!["A"]);
        assert!(h.subclasses("A").is_empty());
    }

    #[test]
    fn forest_with_two_roots() {
        let h = ClassHierarchy::from_pairs(vec![("B", "A"), ("D", "C")]);
        assert_eq!(h.roots(), vec!["A", "C"]);
    }
}

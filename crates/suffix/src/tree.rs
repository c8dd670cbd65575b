//! Generalized suffix tree built with Ukkonen's online algorithm.
//!
//! The paper indexes all RDF predicates plus the *most significant literals*
//! in a suffix tree because the QCM's core lookup — "which strings contain
//! the typed prefix `t`?" — runs in `O(|t| + z)` on it (§5.2). The quoted
//! downside also holds here: the tree can be an order of magnitude larger
//! than its input, which is why only a subset of literals is indexed and the
//! rest live in residual bins.
//!
//! Multiple strings are handled the standard way: each string is appended to
//! a shared symbol buffer followed by a unique terminator symbol, so no
//! suffix spans two strings. Leaves record the string they belong to, and
//! "open" leaf ends resolve per string, which keeps construction online.
//!
//! Every node also records the smallest string id below it, so a lookup
//! returns the *smallest* ids containing the pattern, in ascending order —
//! a function of the strings and their insertion order, never of a hash
//! seed. The QCM inserts its strings in completion rank order, so those are
//! its best matches.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Symbols are `char`s widened to `u32`; values `>= TERMINATOR_BASE` are
/// per-string terminators (they cannot collide with Unicode scalars).
const TERMINATOR_BASE: u32 = 0x0011_0000;

/// Identifier of an indexed string.
pub type StringId = u32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum End {
    /// Fixed end offset (exclusive).
    Fixed(u32),
    /// Leaf of `StringId` that is still growing while that string is built;
    /// resolves to the string's final end afterwards.
    Open(StringId),
}

#[derive(Debug)]
struct Node {
    /// Edge label: `text[start..end]` on the edge from the parent.
    start: u32,
    end: End,
    /// `(first edge symbol, child)`, sorted by symbol.
    children: Vec<(u32, u32)>,
    suffix_link: u32,
    /// For leaves: which string's suffix this leaf represents. For internal
    /// nodes: the smallest such id below. Ids only grow while the tree is
    /// built, so a new node's smallest id is known when it is made.
    string_id: StringId,
}

impl Node {
    fn new(start: u32, end: End, string_id: StringId) -> Self {
        Node {
            start,
            end,
            children: Vec::new(),
            suffix_link: NO_LINK,
            string_id,
        }
    }

    fn child(&self, symbol: u32) -> Option<u32> {
        let at = self.children.binary_search_by_key(&symbol, |&(s, _)| s);
        at.ok().map(|i| self.children[i].1)
    }

    /// Point the edge starting with `symbol` at `child`. A terminator is the
    /// largest symbol yet, so its edge appends.
    fn set_child(&mut self, symbol: u32, child: u32) {
        match self.children.binary_search_by_key(&symbol, |&(s, _)| s) {
            Ok(i) => self.children[i].1 = child,
            Err(i) => self.children.insert(i, (symbol, child)),
        }
    }
}

const NO_LINK: u32 = u32::MAX;

/// A generalized suffix tree over a set of strings.
#[derive(Debug)]
pub struct SuffixTree {
    text: Vec<u32>,
    nodes: Vec<Node>,
    /// Final (exclusive) end offset of each indexed string's region,
    /// including its terminator.
    string_ends: Vec<u32>,
    /// Start offset of each string's region.
    string_starts: Vec<u32>,
    /// The original strings, for retrieval.
    strings: Vec<String>,
    // --- Ukkonen build state (valid during a single string's insertion) ---
    active_node: u32,
    active_edge: u32,
    active_length: u32,
    remainder: u32,
}

impl Default for SuffixTree {
    fn default() -> Self {
        Self::new()
    }
}

impl SuffixTree {
    /// An empty tree.
    pub fn new() -> Self {
        SuffixTree {
            text: Vec::new(),
            nodes: vec![Node::new(0, End::Fixed(0), 0)],
            string_ends: Vec::new(),
            string_starts: Vec::new(),
            strings: Vec::new(),
            active_node: 0,
            active_edge: 0,
            active_length: 0,
            remainder: 0,
        }
    }

    /// Build a tree over the given strings.
    pub fn build<I, S>(strings: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut t = SuffixTree::new();
        for s in strings {
            t.insert(s.into());
        }
        t
    }

    /// Number of indexed strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True if no strings are indexed.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// The indexed string with the given id.
    pub fn string(&self, id: StringId) -> &str {
        &self.strings[id as usize]
    }

    /// All indexed strings.
    pub fn strings(&self) -> &[String] {
        &self.strings
    }

    /// Number of tree nodes (root included).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Approximate resident size in bytes — used to reproduce the paper's
    /// "400 MB tree over 43K strings" observation at our scale.
    pub fn approx_bytes(&self) -> usize {
        let node_bytes: usize = self
            .nodes
            .iter()
            .map(|n| size_of::<Node>() + n.children.capacity() * size_of::<(u32, u32)>())
            .sum();
        self.text.len() * 4 + node_bytes + self.strings.iter().map(|s| s.len() + 24).sum::<usize>()
    }

    /// Insert one string and return its id.
    pub fn insert(&mut self, s: String) -> StringId {
        let id = self.strings.len() as StringId;
        let start = self.text.len() as u32;
        self.string_starts.push(start);
        // Reset the active point: previous strings are fully built (their
        // terminators made every suffix explicit).
        self.active_node = 0;
        self.active_edge = 0;
        self.active_length = 0;
        self.remainder = 0;

        let symbols: Vec<u32> = s
            .chars()
            .map(|c| c as u32)
            .chain([TERMINATOR_BASE + id])
            .collect();
        // `string_ends` must be pushed before extension so Open ends resolve;
        // we update it as the string grows.
        self.string_ends.push(start);
        for sym in symbols {
            self.text.push(sym);
            self.string_ends[id as usize] = self.text.len() as u32;
            self.extend(id);
        }
        self.strings.push(s);
        id
    }

    fn end_of(&self, node: u32) -> u32 {
        match self.nodes[node as usize].end {
            End::Fixed(e) => e,
            End::Open(sid) => self.string_ends[sid as usize],
        }
    }

    fn edge_len(&self, node: u32) -> u32 {
        self.end_of(node) - self.nodes[node as usize].start
    }

    fn push(&mut self, node: Node) -> u32 {
        self.nodes.push(node);
        (self.nodes.len() - 1) as u32
    }

    /// One Ukkonen extension for the symbol at `text.len() - 1`.
    fn extend(&mut self, sid: StringId) {
        let pos = (self.text.len() - 1) as u32;
        let c = self.text[pos as usize];
        self.remainder += 1;
        let mut last_new_node: u32 = NO_LINK;

        while self.remainder > 0 {
            if self.active_length == 0 {
                self.active_edge = pos;
            }
            let edge_sym = self.text[self.active_edge as usize];
            match self.nodes[self.active_node as usize].child(edge_sym) {
                None => {
                    // No edge: create a leaf.
                    let leaf = self.push(Node::new(pos, End::Open(sid), sid));
                    self.nodes[self.active_node as usize].set_child(edge_sym, leaf);
                    if last_new_node != NO_LINK {
                        self.nodes[last_new_node as usize].suffix_link = self.active_node;
                        last_new_node = NO_LINK;
                    }
                }
                Some(next) => {
                    // Walk down if the active length exceeds this edge.
                    let el = self.edge_len(next);
                    if self.active_length >= el {
                        self.active_edge += el;
                        self.active_length -= el;
                        self.active_node = next;
                        continue;
                    }
                    let probe =
                        self.text[(self.nodes[next as usize].start + self.active_length) as usize];
                    if probe == c {
                        // Symbol already present: rule 3 (showstopper).
                        if last_new_node != NO_LINK {
                            self.nodes[last_new_node as usize].suffix_link = self.active_node;
                        }
                        self.active_length += 1;
                        break;
                    }
                    // Split the edge. The split adopts `next`, whose subtree
                    // holds every id below it but the new leaf's, the largest.
                    let split_start = self.nodes[next as usize].start;
                    let split_end = End::Fixed(split_start + self.active_length);
                    let smallest = self.nodes[next as usize].string_id;
                    let split = self.push(Node::new(split_start, split_end, smallest));
                    self.nodes[self.active_node as usize].set_child(edge_sym, split);
                    self.nodes[next as usize].start = split_start + self.active_length;
                    let next_sym = self.text[self.nodes[next as usize].start as usize];
                    self.nodes[split as usize].set_child(next_sym, next);
                    let leaf = self.push(Node::new(pos, End::Open(sid), sid));
                    self.nodes[split as usize].set_child(c, leaf);
                    if last_new_node != NO_LINK {
                        self.nodes[last_new_node as usize].suffix_link = split;
                    }
                    last_new_node = split;
                }
            }
            self.remainder -= 1;
            if self.active_node == 0 && self.active_length > 0 {
                self.active_length -= 1;
                self.active_edge = pos - self.remainder + 1;
            } else if self.active_node != 0 {
                let link = self.nodes[self.active_node as usize].suffix_link;
                self.active_node = if link == NO_LINK { 0 } else { link };
            }
        }
    }

    /// Locate the node (and consumed-edge offset) reached by matching
    /// `pattern` from the root, or `None` if the pattern does not occur.
    fn locate(&self, pattern: &[u32]) -> Option<(u32, u32)> {
        let mut node = 0u32;
        let mut i = 0usize;
        while i < pattern.len() {
            let child = self.nodes[node as usize].child(pattern[i])?;
            let start = self.nodes[child as usize].start;
            let end = self.end_of(child);
            let mut j = start;
            while j < end && i < pattern.len() {
                if self.text[j as usize] != pattern[i] {
                    return None;
                }
                j += 1;
                i += 1;
            }
            if i == pattern.len() {
                return Some((child, j - start));
            }
            node = child;
        }
        Some((node, self.edge_len(node)))
    }

    /// Ids of the strings containing `pattern`: the `limit` smallest, in
    /// ascending order (`usize::MAX` for all). The QCM calls this with
    /// `limit = k`.
    ///
    /// Walks the pattern's subtree best-first by each node's smallest id, so
    /// leaves come out in ascending id order and a string's repeated
    /// occurrences come out together; it stops at the `limit`-th id.
    pub fn find_containing(&self, pattern: &str, limit: usize) -> Vec<StringId> {
        if limit == 0 {
            return Vec::new();
        }
        if pattern.is_empty() {
            return (0..self.strings.len().min(limit) as u32).collect();
        }
        let symbols: Vec<u32> = pattern.chars().map(|c| c as u32).collect();
        let Some((node, _)) = self.locate(&symbols) else {
            return Vec::new();
        };
        let mut found: Vec<StringId> = Vec::new();
        let mut heap = BinaryHeap::from([Reverse((self.nodes[node as usize].string_id, node))]);
        while let Some(Reverse((sid, n))) = heap.pop() {
            let children = &self.nodes[n as usize].children;
            if !children.is_empty() {
                let ranked = children
                    .iter()
                    .map(|&(_, c)| (self.nodes[c as usize].string_id, c));
                heap.extend(ranked.map(Reverse));
            } else if found.last() != Some(&sid) {
                found.push(sid);
                if found.len() == limit {
                    break;
                }
            }
        }
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_containing(strings: &[&str], pattern: &str) -> Vec<usize> {
        strings
            .iter()
            .enumerate()
            .filter(|(_, s)| s.contains(pattern))
            .map(|(i, _)| i)
            .collect()
    }

    fn occurs(t: &SuffixTree, pattern: &str) -> bool {
        !t.find_containing(pattern, 1).is_empty()
    }

    #[test]
    fn single_string_substrings() {
        let t = SuffixTree::build(["banana"]);
        for sub in ["b", "a", "na", "ana", "banana", "nan", ""] {
            assert!(occurs(&t, sub), "should contain {sub:?}");
        }
        for sub in ["x", "ab", "bananas", "nab"] {
            assert!(!occurs(&t, sub), "should not contain {sub:?}");
        }
    }

    #[test]
    fn multi_string_lookup() {
        let strings = ["New York", "Newcastle", "York Minster", "Boston"];
        let t = SuffixTree::build(strings);
        assert_eq!(t.find_containing("York", usize::MAX), vec![0, 2]);
        assert_eq!(t.find_containing("New", usize::MAX), vec![0, 1]);
        assert!(t.find_containing("Chicago", usize::MAX).is_empty());
    }

    #[test]
    fn limit_caps_results() {
        let strings: Vec<String> = (0..100).map(|i| format!("predicate_{i}")).collect();
        let t = SuffixTree::build(strings);
        // The ten smallest ids, whatever order the walk meets them in.
        let ids = t.find_containing("predicate", 10);
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
        assert_eq!(t.find_containing("_9", 3), vec![9, 90, 91]);
    }

    #[test]
    fn no_cross_string_phantom_matches() {
        // "ab" + "cd" must not produce a phantom "bc" match.
        let t = SuffixTree::build(["ab", "cd"]);
        assert!(!occurs(&t, "bc"));
        assert!(occurs(&t, "ab"));
        assert!(occurs(&t, "cd"));
    }

    #[test]
    fn repeated_insertions_of_same_text() {
        let t = SuffixTree::build(["same", "same", "same"]);
        assert_eq!(t.find_containing("same", usize::MAX), vec![0, 1, 2]);
        // A string with several occurrences is returned once.
        let t = SuffixTree::build(["aaaa", "ba", "aa"]);
        assert_eq!(t.find_containing("a", usize::MAX), vec![0, 1, 2]);
    }

    #[test]
    fn unicode_strings() {
        let t = SuffixTree::build(["Zürich", "Москва", "東京都"]);
        assert_eq!(t.find_containing("ürich", usize::MAX), vec![0]);
        assert_eq!(t.find_containing("осква", usize::MAX), vec![1]);
        assert_eq!(t.find_containing("京都", usize::MAX), vec![2]);
        assert!(t.find_containing("Zürichsee", usize::MAX).is_empty());
    }

    #[test]
    fn agrees_with_naive_on_corpus() {
        let strings = [
            "almaMater",
            "birthPlace",
            "deathPlace",
            "spouse",
            "placeOfBirth",
            "birthDate",
            "alma mater of",
            "water place",
            "mata hari",
        ];
        let t = SuffixTree::build(strings);
        for pattern in [
            "al", "ma", "Place", "place", "a m", "irth", "spouse", "zz", "e",
        ] {
            let got = t.find_containing(pattern, usize::MAX);
            let want: Vec<u32> = naive_containing(&strings, pattern)
                .into_iter()
                .map(|i| i as u32)
                .collect();
            assert_eq!(got, want, "pattern {pattern:?}");
        }
    }

    #[test]
    fn empty_pattern_returns_everything_up_to_limit() {
        let t = SuffixTree::build(["a", "b", "c"]);
        assert_eq!(t.find_containing("", 2), vec![0, 1]);
        assert_eq!(t.find_containing("", usize::MAX), vec![0, 1, 2]);
    }

    #[test]
    fn size_accounting_is_positive_and_superlinear_ish() {
        let small = SuffixTree::build(["ab"]);
        let big = SuffixTree::build((0..200).map(|i| format!("some literal value number {i}")));
        assert!(small.approx_bytes() > 0);
        assert!(big.approx_bytes() > small.approx_bytes());
        assert!(big.node_count() > 200);
    }

    #[test]
    fn find_strings_returns_text() {
        let t = SuffixTree::build(["Kennedy", "Kennedys", "Kenneth"]);
        let got: Vec<&str> = t
            .find_containing("Kennedy", usize::MAX)
            .into_iter()
            .map(|id| t.string(id))
            .collect();
        assert_eq!(got, vec!["Kennedy", "Kennedys"]);
    }
}

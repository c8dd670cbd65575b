//! # sapphire-suffix
//!
//! The literal index of the Sapphire reproduction
//! (*Sapphire: Querying RDF Data Made Simple*, El-Roby et al., VLDB 2016).
//!
//! Sapphire's Query Completion Module answers "which cached strings contain
//! the substring the user has typed so far?" on every keystroke. The paper
//! (§5.2) chooses a suffix tree for this because lookup cost is
//! `O(|t| + z)` — independent of corpus size — at the price of a large
//! memory footprint, which is why only predicates and the *most significant
//! literals* are indexed. This crate answers the same lookups from a
//! generalized suffix array at about a fifth of the tree's bytes; the type
//! keeps the paper's name, [`SuffixTree`].
//!
//! ```
//! use sapphire_suffix::SuffixTree;
//!
//! let tree = SuffixTree::build(["almaMater", "birthPlace", "placeOfBirth", "spouse"]);
//! // Ids are build order; a lookup returns the smallest first.
//! let ids = tree.find_containing("irth", 10);
//! assert_eq!(ids, vec![1, 2]);
//! assert_eq!(tree.string(ids[0]), "birthPlace");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod tree;

pub use tree::{StringId, SuffixTree};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The tree must agree exactly with a naive `str::contains` scan.
        #[test]
        fn matches_naive_scan(
            strings in proptest::collection::vec("[a-c]{0,8}", 1..12),
            pattern in "[a-c]{0,4}",
        ) {
            let tree = SuffixTree::build(strings.iter().cloned());
            let got = tree.find_containing(&pattern, usize::MAX);
            let want: Vec<u32> = strings
                .iter()
                .enumerate()
                .filter(|(_, s)| s.contains(pattern.as_str()))
                .map(|(i, _)| i as u32)
                .collect();
            prop_assert_eq!(got, want);
        }

        /// The same over 1-, 2-, 3- and 4-byte chars, at several limits.
        #[test]
        fn matches_naive_scan_on_multibyte_text(
            strings in proptest::collection::vec("[aé€😀]{0,8}", 1..12),
            pattern in "[aé€😀]{0,3}",
        ) {
            let tree = SuffixTree::build(strings.iter().cloned());
            let want: Vec<u32> = strings
                .iter()
                .enumerate()
                .filter(|(_, s)| s.contains(pattern.as_str()))
                .map(|(i, _)| i as u32)
                .collect();
            for k in [0, 1, 3, usize::MAX] {
                let naive: Vec<u32> = want.iter().copied().take(k).collect();
                prop_assert_eq!(tree.find_containing(&pattern, k), naive);
            }
        }

        /// Every indexed string contains all of its own substrings.
        #[test]
        fn contains_own_substrings(s in "[a-z]{1,16}") {
            let tree = SuffixTree::build([s.clone()]);
            for start in 0..s.len() {
                for end in start + 1..=s.len() {
                    prop_assert_eq!(tree.find_containing(&s[start..end], 1), vec![0]);
                }
            }
        }

        /// A limit of k yields exactly the k smallest matching ids, in
        /// ascending order.
        #[test]
        fn limit_is_respected(
            strings in proptest::collection::vec("[a-b]{0,6}", 1..20),
            pattern in "[a-b]{1,3}",
            k in 1usize..24,
        ) {
            let tree = SuffixTree::build(strings.iter().cloned());
            let naive: Vec<u32> = strings
                .iter()
                .enumerate()
                .filter(|(_, s)| s.contains(pattern.as_str()))
                .map(|(i, _)| i as u32)
                .take(k)
                .collect();
            prop_assert_eq!(tree.find_containing(&pattern, k), naive);
        }
    }
}

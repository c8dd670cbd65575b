//! # sapphire-text
//!
//! Text-matching substrate for the Sapphire reproduction
//! (*Sapphire: Querying RDF Data Made Simple*, El-Roby et al., VLDB 2016).
//!
//! * [`similarity`] — Jaro and Jaro-Winkler similarity (the QSM's ranking
//!   measure with threshold θ = 0.7, §6.2.1), plus Levenshtein for the
//!   ablation bench.
//! * [`tokenize`] — IRI → keyword surface forms (`almaMater` → `alma mater`),
//!   since Sapphire matches user *keywords*, not URIs (§5.1).
//! * [`lexicon`] — a Lemon-style verbalization lexicon standing in for the
//!   DBpedia Lemon lexicon the paper uses (its module docs say what was
//!   substituted and why).

#![warn(missing_docs)]

pub mod lexicon;
pub mod similarity;
pub mod tokenize;

pub use lexicon::Lexicon;
pub use similarity::{
    jaro, jaro_winkler, jaro_winkler_ci, levenshtein, levenshtein_similarity, SimilarityProbe,
};
pub use tokenize::{keywords, local_name, normalize, split_identifier, surface_form};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Similarity measures stay in [0, 1] and are symmetric.
        #[test]
        fn similarity_bounds_and_symmetry(a in ".{0,12}", b in ".{0,12}") {
            for f in [jaro, jaro_winkler, levenshtein_similarity] {
                let x = f(&a, &b);
                prop_assert!((0.0..=1.0).contains(&x), "{} out of range", x);
                prop_assert!((x - f(&b, &a)).abs() < 1e-9);
            }
        }

        /// Identity scores 1.0 on every measure.
        #[test]
        fn identity_is_one(a in ".{0,16}") {
            prop_assert!((jaro(&a, &a) - 1.0).abs() < 1e-9);
            prop_assert!((jaro_winkler(&a, &a) - 1.0).abs() < 1e-9);
            prop_assert_eq!(levenshtein(&a, &a), 0);
        }

        /// Levenshtein satisfies the triangle inequality.
        #[test]
        fn levenshtein_triangle(a in "[a-c]{0,6}", b in "[a-c]{0,6}", c in "[a-c]{0,6}") {
            prop_assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
        }

        /// Winkler's prefix boost never lowers the Jaro score.
        #[test]
        fn winkler_boost_is_monotone(a in ".{0,12}", b in ".{0,12}") {
            prop_assert!(jaro_winkler(&a, &b) >= jaro(&a, &b) - 1e-9);
        }
    }
}

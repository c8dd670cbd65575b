//! # sapphire-baselines
//!
//! Comparison systems for the Sapphire reproduction
//! (*Sapphire: Querying RDF Data Made Simple*, El-Roby et al., VLDB 2016).
//!
//! §7.2 compares Sapphire against four runnable systems; each is
//! reimplemented here faithful to its *capability class* (see ARCHITECTURE.md, "Substitutions"):
//!
//! * [`qakis`] — QAKiS \[7\]: relational-pattern NL QA. Entity mention +
//!   relation pattern → single-relation SPARQL. No joins, no aggregates.
//! * [`kbqa`] — KBQA \[10\]: template-based factoid QA. Exact template match
//!   only → perfect precision, low recall.
//! * [`s4`] — S4 \[31\]: type-level summary graph; rewrites structurally naive
//!   queries whose predicates/terms are correct.
//! * [`sparqlbye`] — SPARQLByE [4, 11]: reverse-engineers queries from
//!   example answers with oracle feedback.
//! * [`scoring`] / [`harness`] — the QALD measures and the §7.2 protocol
//!   driver regenerating Table 1.

#![warn(missing_docs)]

pub mod entity_index;
pub mod harness;
pub mod kbqa;
pub mod qakis;
pub mod s4;
pub mod scoring;
pub mod sparqlbye;

pub use entity_index::EntityIndex;
pub use harness::ComparisonHarness;
pub use kbqa::Kbqa;
pub use qakis::QaKis;
pub use s4::S4;
pub use scoring::{paper_measured_rows, quoted_rows, SystemScore};
pub use sparqlbye::SparqlByE;

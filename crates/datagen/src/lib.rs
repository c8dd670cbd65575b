//! # sapphire-datagen
//!
//! Workload substrate for the Sapphire reproduction
//! (*Sapphire: Querying RDF Data Made Simple*, El-Roby et al., VLDB 2016).
//!
//! The paper evaluates on live DBpedia with human participants; neither ships
//! in a reproduction, so this crate provides the substitutes (see ARCHITECTURE.md,
//! "Substitutions"):
//!
//! * [`generator`] — a seeded DBpedia-like RDF dataset: RDFS class hierarchy
//!   with materialized types, multi-domain entities, skewed in-degrees, and
//!   noise literals exercising the init filters and similarity search.
//! * [`ontology`] — the class/predicate vocabulary plus hand-anchored
//!   entities so every workload question has a gold answer.
//! * [`workload`] — the 27 Appendix-B user-study questions and the
//!   50-question QALD-style comparison set, each with gold SPARQL and an
//!   idealized Sapphire session script.
//! * [`userstudy`] — stochastic simulated participants that drive the real
//!   Sapphire pipeline (Figures 8–11).

#![warn(missing_docs)]

pub mod generator;
pub mod names;
pub mod ontology;
pub mod userstudy;
pub mod workload;

pub use generator::{generate, DatasetConfig};
pub use userstudy::{run_study, NlQaSystem, Outcome, StudyConfig, SystemResults, TimeModel};
pub use workload::{appendix_b, gold_answers, grade, qald_style_50, Difficulty, Grade, Question};

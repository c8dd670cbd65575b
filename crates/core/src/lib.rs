//! # sapphire-core
//!
//! The primary contribution of *Sapphire: Querying RDF Data Made Simple*
//! (El-Roby, Ammar, Aboulnaga, Lin — VLDB 2016), reproduced in Rust.
//!
//! Sapphire is an interactive tool that helps users write syntactically and
//! semantically correct SPARQL queries over RDF datasets they do not know.
//! Its core is the **Predictive User Model** (PUM), built on data cached from
//! the queried endpoints:
//!
//! * [`init`] — initialization for a new endpoint (§5, Appendix A Q1–Q10):
//!   cache all predicates and a language/length-filtered subset of literals,
//!   partitioned along the RDFS class hierarchy with timeout-driven descent
//!   and pagination; identify *most significant literals* (Definition 1).
//! * [`cache`] / [`bins`] — the cache: predicate table, a suffix tree over
//!   predicates + significant literals, and length-keyed residual bins with
//!   the Algorithm 1 parallel scan.
//! * [`qcm`] — the Query Completion Module (§6.1, Figure 5): per-keystroke
//!   auto-complete, suffix tree first, parallel residual scan second.
//! * [`qsm`] — the Query Suggestion Module (§6.2): alternative terms via
//!   lexica + Jaro-Winkler (Algorithm 2), and structure relaxation via a
//!   budgeted Steiner-tree search over the remote graph (Algorithm 3).
//! * [`pum`] / [`session`] / [`answers`] — the facade and the interactive
//!   query-composition workflow of §4 (text box per triple part, Run,
//!   suggestions, answer table).
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use sapphire_core::prelude::*;
//!
//! // 1. Stand up an endpoint (in production this is a remote SPARQL server).
//! let graph = sapphire_sparql::turtle::parse(
//!     r#"res:JFK a dbo:Person ; dbo:surname "Kennedy"@en ."#,
//! ).unwrap();
//! let ep: Arc<dyn Endpoint> =
//!     Arc::new(LocalEndpoint::new("dbpedia", graph, EndpointLimits::warehouse()));
//!
//! // 2. Register it with Sapphire (runs §5 initialization).
//! let pum = PredictiveUserModel::initialize(
//!     vec![ep], Lexicon::dbpedia_default(), SapphireConfig::for_tests(), InitMode::Federated,
//! ).unwrap();
//!
//! // 3. Type a query with auto-complete, run it, take suggestions.
//! let mut session = Session::new(&pum);
//! session.set_row(0, TripleInput::new("?who", "surname", "Kennedys"));
//! let result = session.run().unwrap();
//! assert!(result.suggestions.alternatives.iter().any(|a| a.replacement == "Kennedy"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod answers;
pub mod bins;
pub mod cache;
pub mod config;
pub mod exec;
pub mod init;
pub mod pum;
pub mod qcm;
pub mod qsm;
pub mod session;

pub use answers::AnswerTable;
pub use cache::{
    BoundedCache, CacheStats, CachedClass, CachedData, CachedPredicate, KeyedRequest, LitRef,
    MatchSource, RequestKey, ShardedLru,
};
pub use config::{SapphireConfig, SteinerConfig, LANGUAGE, LITERAL_MAX_LEN};
pub use exec::{ExecStats, Executor, TaskHandle};
pub use init::{InitError, InitMode, InitStats, Initializer};
pub use pum::{PredictiveUserModel, PumError, RunOutcome};
pub use qcm::{Completion, CompletionResult, QueryCompletion};
pub use qsm::{
    AltCacheStats, NeighborhoodCache, NeighborhoodStats, QsmOutput, QuerySuggestion, RelaxedQuery,
    StructureSuggestion, TermAlternative,
};
pub use session::{Modifiers, RunResult, Session, SessionError, TripleInput};

// The serving layer shares one `PredictiveUserModel` (and its `CachedData`)
// across every worker thread behind an `Arc`, so these types must stay
// `Send + Sync`. Interior mutability in any hot read path would silently
// break that; fail compilation instead.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PredictiveUserModel>();
    assert_send_sync::<CachedData>();
    assert_send_sync::<QueryCompletion>();
    assert_send_sync::<QuerySuggestion>();
    assert_send_sync::<BoundedCache<String, String>>();
    assert_send_sync::<NeighborhoodCache>();
};

/// Common imports for downstream users.
pub mod prelude {
    pub use crate::answers::AnswerTable;
    pub use crate::cache::CachedData;
    pub use crate::config::SapphireConfig;
    pub use crate::init::{InitMode, Initializer};
    pub use crate::pum::PredictiveUserModel;
    pub use crate::qcm::QueryCompletion;
    pub use crate::qsm::QuerySuggestion;
    pub use crate::session::{Session, TripleInput};
    pub use sapphire_endpoint::{Endpoint, EndpointLimits, FederatedProcessor, LocalEndpoint};
    pub use sapphire_text::Lexicon;
}

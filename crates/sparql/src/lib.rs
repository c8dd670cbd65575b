//! # sapphire-sparql
//!
//! SPARQL substrate for the Sapphire reproduction
//! (*Sapphire: Querying RDF Data Made Simple*, El-Roby et al., VLDB 2016).
//!
//! Sapphire composes, rewrites, and executes SPARQL queries: its
//! initialization issues the Q1–Q10 templates of Appendix A against remote
//! endpoints, the QSM builds alternative queries and executes them in the
//! background, and the structure-relaxation algorithm explores the remote
//! graph purely through SPARQL. This crate supplies the query language:
//!
//! * [`ast`] — the SPARQL subset: `SELECT [DISTINCT]` with aggregates,
//!   basic graph patterns, `FILTER`, `GROUP BY`, `ORDER BY`,
//!   `LIMIT`/`OFFSET`, `ASK`, and single-variable `VALUES`.
//! * [`lexer`] / [`parser`] — hand-written tokenizer and recursive-descent
//!   parser with prefix expansion.
//! * [`eval`] — an evaluator over [`sapphire_rdf::Graph`] with greedy
//!   selectivity-based join ordering and a deterministic [`eval::WorkBudget`]
//!   that the endpoint layer uses to simulate remote timeouts (the driver of
//!   the paper's §5.1 initialization algorithm). Joins and every solution
//!   modifier run on interned ids; terms are materialized for the rows that
//!   survive the slice.
//! * [`solutions`] — materialized result tables.
//!
//! ## Example
//!
//! ```
//! use sapphire_sparql::{parse_select, evaluate_select, WorkBudget};
//!
//! let g = sapphire_rdf::turtle::parse(
//!     r#"res:Alice a dbo:Scientist ; dbo:name "Alice"@en ."#,
//! ).unwrap();
//! let q = parse_select("SELECT ?n WHERE { ?s a dbo:Scientist ; dbo:name ?n }").unwrap();
//! let rows = evaluate_select(&g, &q, &mut WorkBudget::unlimited()).unwrap();
//! assert_eq!(rows.get(0, "n").unwrap().lexical(), "Alice");
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod eval;
pub mod lexer;
pub mod parser;
pub mod solutions;

pub use ast::{
    Aggregate, CmpOp, Expr, GraphPattern, InlineData, OrderKey, Projection, Query, SelectItem,
    SelectQuery, TermPattern, TriplePattern,
};
pub use eval::{evaluate, evaluate_select, select_rows, term_order, EvalError, WorkBudget};
pub use parser::{parse_query, parse_select, ParseError};
pub use solutions::{QueryResult, Solutions};

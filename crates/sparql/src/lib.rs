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
//! * [`turtle`] — the repo's one reader of RDF text: a Turtle document is
//!   read by the same lexer and triple-block rule as a query's pattern, so
//!   a fixture and a query cannot disagree on an IRI, a literal or a
//!   separator.
//! * [`eval`] — an evaluator over [`sapphire_rdf::Graph`] that plans each
//!   BGP once, into one plan value — how far to walk, a greedy
//!   connected-first, selectivity-based join order, the step each filter
//!   fires at, and the side a `VALUES` list enters from — and walks that
//!   plan; the one up-front price of a pattern ([`eval::estimate_cost`],
//!   what an endpoint's admission gate reads, from the plan's compile
//!   step); and a deterministic [`eval::WorkBudget`]
//!   that the endpoint layer uses to simulate remote timeouts (the driver of
//!   the paper's §5.1 initialization algorithm). Joins and every solution
//!   modifier run on interned ids; terms are materialized for the rows that
//!   survive the slice.
//! * [`solutions`] — materialized result tables.
//!
//! ## Example
//!
//! ```
//! use sapphire_sparql::{parse_select, evaluate_select, turtle, WorkBudget};
//!
//! let g = turtle::parse(
//!     r#"res:Alice a dbo:Scientist ; dbo:name "Alice"@en ."#,
//! ).unwrap();
//! let q = parse_select("SELECT ?n WHERE { ?s a dbo:Scientist ; dbo:name ?n }").unwrap();
//! let rows = evaluate_select(&g, &q, &mut WorkBudget::unlimited()).unwrap();
//! assert_eq!(rows.get(0, "n").unwrap().lexical(), "Alice");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod eval;
pub mod lexer;
pub mod parser;
pub mod solutions;
pub mod turtle;

pub use ast::{
    Aggregate, CmpOp, Expr, GraphPattern, InlineData, OrderKey, Projection, Query, SelectItem,
    SelectQuery, TermPattern, TriplePattern,
};
pub use eval::{
    estimate_cost, evaluate, evaluate_select, select_rows, term_order, EvalError, WorkBudget,
};
pub use parser::{parse_query, parse_select, ParseError, MAX_EXPR_DEPTH};
pub use solutions::{QueryResult, Solutions};

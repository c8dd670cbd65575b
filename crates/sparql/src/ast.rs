//! Abstract syntax for the SPARQL subset the reproduction needs.
//!
//! The subset covers everything the paper's queries use (Q1–Q10 in Appendix A,
//! the user-study gold queries, and the QSM's generated queries): `SELECT
//! [DISTINCT]`, basic graph patterns, `FILTER` expressions, aggregates with
//! `GROUP BY`, `ORDER BY`, `LIMIT`/`OFFSET`, `ASK`, and single-variable
//! inline data (`VALUES ?v { t1 … tn }`) — what lets the QSM ask *which* of a
//! slot's candidate terms have any answer in one query: Algorithm 2's "top
//! k/2 with answers" cut is one such probe per slot plus at most k
//! prefetches.

use std::fmt;
use std::sync::Arc;

use sapphire_rdf::Term;

/// A position in a triple pattern: either a variable or a concrete term.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TermPattern {
    /// A variable, stored without the leading `?`.
    Var(String),
    /// A ground RDF term.
    Term(Term),
}

impl TermPattern {
    /// Convenience constructor for a variable.
    pub fn var(name: impl Into<String>) -> Self {
        TermPattern::Var(name.into())
    }

    /// Convenience constructor for an IRI term.
    pub fn iri(value: impl Into<String>) -> Self {
        TermPattern::Term(Term::iri(value))
    }

    /// The variable name, if this is a variable.
    pub fn as_var(&self) -> Option<&str> {
        match self {
            TermPattern::Var(v) => Some(v),
            TermPattern::Term(_) => None,
        }
    }

    /// The ground term, if this is one.
    pub fn as_term(&self) -> Option<&Term> {
        match self {
            TermPattern::Var(_) => None,
            TermPattern::Term(t) => Some(t),
        }
    }
}

impl fmt::Display for TermPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TermPattern::Var(v) => write!(f, "?{v}"),
            TermPattern::Term(t) => write!(f, "{t}"),
        }
    }
}

/// A triple pattern in a basic graph pattern.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TriplePattern {
    /// Subject position.
    pub subject: TermPattern,
    /// Predicate position.
    pub predicate: TermPattern,
    /// Object position.
    pub object: TermPattern,
}

impl TriplePattern {
    /// Construct a pattern.
    pub fn new(subject: TermPattern, predicate: TermPattern, object: TermPattern) -> Self {
        TriplePattern {
            subject,
            predicate,
            object,
        }
    }

    /// Iterate over the three positions.
    pub fn positions(&self) -> [&TermPattern; 3] {
        [&self.subject, &self.predicate, &self.object]
    }

    /// Variables mentioned in this pattern, in s/p/o order (with duplicates).
    pub fn variables(&self) -> impl Iterator<Item = &str> {
        self.positions().into_iter().filter_map(|p| p.as_var())
    }
}

impl fmt::Display for TriplePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {} .", self.subject, self.predicate, self.object)
    }
}

/// Comparison operators in filter expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// Filter/projection expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A variable reference.
    Var(String),
    /// A constant term (IRI or literal).
    Const(Term),
    /// Logical conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Logical disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
    /// Binary comparison.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// `isLITERAL(e)`.
    IsLiteral(Box<Expr>),
    /// `isIRI(e)`.
    IsIri(Box<Expr>),
    /// `LANG(e)` — language tag as a plain literal (empty if none).
    Lang(Box<Expr>),
    /// `STR(e)` — lexical form as a plain literal.
    Str(Box<Expr>),
    /// `STRLEN(e)` — length in characters.
    StrLen(Box<Expr>),
    /// `CONTAINS(haystack, needle)` — case-sensitive substring test.
    Contains(Box<Expr>, Box<Expr>),
    /// `STRSTARTS(s, prefix)`.
    StrStarts(Box<Expr>, Box<Expr>),
    /// `REGEX(text, pattern [, flags])` — we support literal-substring
    /// patterns plus `^`/`$` anchors, with the `i` flag.
    Regex(Box<Expr>, String, bool),
    /// `LCASE(e)`.
    LCase(Box<Expr>),
    /// `UCASE(e)`.
    UCase(Box<Expr>),
    /// `YEAR(e)` — year of an xsd:date-shaped literal.
    Year(Box<Expr>),
    /// `BOUND(?v)`.
    Bound(String),
}

impl Expr {
    /// All variables mentioned anywhere in the expression.
    pub fn variables(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Expr::Var(v) | Expr::Bound(v) => out.push(v),
            Expr::Const(_) => {}
            Expr::And(a, b)
            | Expr::Or(a, b)
            | Expr::Cmp(_, a, b)
            | Expr::Contains(a, b)
            | Expr::StrStarts(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Expr::Not(e)
            | Expr::IsLiteral(e)
            | Expr::IsIri(e)
            | Expr::Lang(e)
            | Expr::Str(e)
            | Expr::StrLen(e)
            | Expr::LCase(e)
            | Expr::UCase(e)
            | Expr::Year(e) => e.collect_vars(out),
            Expr::Regex(e, _, _) => e.collect_vars(out),
        }
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Aggregate {
    /// `COUNT(*)`, `COUNT(?v)`, or `COUNT(DISTINCT ?v)`.
    Count {
        /// Deduplicate before counting.
        distinct: bool,
        /// `None` means `COUNT(*)`.
        var: Option<String>,
    },
    /// `SUM(?v)`.
    Sum(String),
    /// `MIN(?v)`.
    Min(String),
    /// `MAX(?v)`.
    Max(String),
    /// `AVG(?v)`.
    Avg(String),
}

/// One item of a SELECT projection.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// A plain variable.
    Var(String),
    /// An aggregate, optionally aliased with `AS`.
    Agg {
        /// The aggregate function.
        agg: Aggregate,
        /// Output column name. Auto-generated when the query omits `AS`.
        alias: String,
    },
}

impl SelectItem {
    /// The output column name of this item.
    pub fn name(&self) -> &str {
        match self {
            SelectItem::Var(v) => v,
            SelectItem::Agg { alias, .. } => alias,
        }
    }
}

/// SELECT projection: explicit items or `*`.
#[derive(Debug, Clone, PartialEq)]
pub enum Projection {
    /// `SELECT *` — all variables in scope, sorted.
    Star,
    /// Explicit items.
    Items(Vec<SelectItem>),
}

/// A sort key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    /// Sort expression (usually a variable).
    pub expr: Expr,
    /// Descending order if true.
    pub descending: bool,
}

/// Single-variable inline data, `VALUES ?var { t1 … tn }`: the pattern's
/// solutions are those with `?var` bound to one of `terms`, once per
/// occurrence of the term in the list and in list order.
///
/// The subset joins inline data against the data: `var` must occur in a
/// triple pattern, so a term the queried graph does not hold contributes no
/// solution. The list is shared — a query is cloned on its way to an
/// endpoint, a probe's thousand candidate terms are not.
#[derive(Debug, Clone, PartialEq)]
pub struct InlineData {
    /// The variable, stored without the leading `?`.
    pub var: String,
    /// The values, duplicates allowed.
    pub terms: Arc<[Term]>,
}

/// The body shared by SELECT and ASK: a basic graph pattern plus filters,
/// optionally joined with inline data.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GraphPattern {
    /// Triple patterns, in source order.
    pub triples: Vec<TriplePattern>,
    /// Filter expressions (conjunctive).
    pub filters: Vec<Expr>,
    /// `VALUES` block, if any.
    pub values: Option<InlineData>,
}

impl GraphPattern {
    /// All distinct variable names in the pattern, in first-mention order
    /// (triples, then filters, then the `VALUES` variable).
    pub fn variables(&self) -> Vec<String> {
        let triples = self.triples.iter().flat_map(|t| t.variables());
        let filters = self.filters.iter().flat_map(|f| f.variables());
        let values = self.values.iter().map(|d| d.var.as_str());
        let mut seen: Vec<String> = Vec::new();
        for v in triples.chain(filters).chain(values) {
            if !seen.iter().any(|s| s == v) {
                seen.push(v.to_string());
            }
        }
        seen
    }

    /// True if `var` occurs in some triple pattern.
    pub fn binds(&self, var: &str) -> bool {
        self.triples.iter().any(|t| t.variables().any(|v| v == var))
    }
}

/// A parsed query.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// `SELECT ... WHERE { ... }`.
    Select(SelectQuery),
    /// `ASK { ... }`.
    Ask(GraphPattern),
}

impl Query {
    /// The graph pattern the query matches.
    pub fn pattern(&self) -> &GraphPattern {
        match self {
            Query::Select(s) => &s.pattern,
            Query::Ask(gp) => gp,
        }
    }

    /// The SELECT form, if this is one.
    pub fn as_select(&self) -> Option<&SelectQuery> {
        match self {
            Query::Select(s) => Some(s),
            Query::Ask(_) => None,
        }
    }
}

/// A SELECT query.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectQuery {
    /// `DISTINCT` modifier.
    pub distinct: bool,
    /// Projection list.
    pub projection: Projection,
    /// WHERE clause.
    pub pattern: GraphPattern,
    /// GROUP BY variables.
    pub group_by: Vec<String>,
    /// ORDER BY keys.
    pub order_by: Vec<OrderKey>,
    /// LIMIT.
    pub limit: Option<usize>,
    /// OFFSET.
    pub offset: Option<usize>,
}

impl SelectQuery {
    /// A minimal `SELECT * WHERE { pattern }` query.
    pub fn star(pattern: GraphPattern) -> Self {
        SelectQuery {
            distinct: false,
            projection: Projection::Star,
            pattern,
            group_by: Vec::new(),
            order_by: Vec::new(),
            limit: None,
            offset: None,
        }
    }

    /// True if the projection contains any aggregate.
    pub fn has_aggregates(&self) -> bool {
        match &self.projection {
            Projection::Star => false,
            Projection::Items(items) => items.iter().any(|i| matches!(i, SelectItem::Agg { .. })),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_variables_in_order() {
        let mut gp = GraphPattern::default();
        gp.triples.push(TriplePattern::new(
            TermPattern::var("uri"),
            TermPattern::iri("p"),
            TermPattern::var("university"),
        ));
        gp.triples.push(TriplePattern::new(
            TermPattern::var("university"),
            TermPattern::iri("q"),
            TermPattern::var("x"),
        ));
        assert_eq!(gp.variables(), vec!["uri", "university", "x"]);
    }

    #[test]
    fn expr_variables() {
        let e = Expr::And(
            Box::new(Expr::Cmp(
                CmpOp::Gt,
                Box::new(Expr::StrLen(Box::new(Expr::Var("o".into())))),
                Box::new(Expr::Const(Term::literal("80"))),
            )),
            Box::new(Expr::Bound("s".into())),
        );
        assert_eq!(e.variables(), vec!["o", "s"]);
    }

    #[test]
    fn display_forms() {
        let tp = TriplePattern::new(
            TermPattern::var("s"),
            TermPattern::iri("http://x/p"),
            TermPattern::Term(Term::en("v")),
        );
        assert_eq!(tp.to_string(), "?s <http://x/p> \"v\"@en .");
        assert_eq!(CmpOp::Ge.to_string(), ">=");
    }

    #[test]
    fn select_item_names() {
        assert_eq!(SelectItem::Var("x".into()).name(), "x");
        let agg = SelectItem::Agg {
            agg: Aggregate::Count {
                distinct: true,
                var: Some("uri".into()),
            },
            alias: "c".into(),
        };
        assert_eq!(agg.name(), "c");
    }
}

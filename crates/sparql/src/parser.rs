//! Recursive-descent parser for the SPARQL subset.

use std::collections::HashMap;
use std::fmt;

use sapphire_rdf::{vocab, Literal, Term};

use crate::ast::*;
use crate::lexer::{tokenize, LexError, Token};

/// A parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.to_string(),
        }
    }
}

/// Parse a query string into a [`Query`].
pub fn parse_query(input: &str) -> Result<Query, ParseError> {
    let tokens = tokenize(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        prefixes: vocab::standard_prefixes()
            .into_iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        agg_counter: 0,
    };
    let q = p.query()?;
    if !p.at_end() {
        return Err(p.err(format!("trailing tokens starting at {}", p.peek_desc())));
    }
    Ok(q)
}

/// Parse a SELECT query, rejecting ASK.
pub fn parse_select(input: &str) -> Result<SelectQuery, ParseError> {
    match parse_query(input)? {
        Query::Select(s) => Ok(s),
        Query::Ask(_) => Err(ParseError {
            message: "expected SELECT, found ASK".into(),
        }),
    }
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    prefixes: HashMap<String, String>,
    agg_counter: usize,
}

impl Parser {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek_desc(&self) -> String {
        match self.peek() {
            Some(t) => format!("{t}"),
            None => "<eof>".to_string(),
        }
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Token::Keyword(k)) if k == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Token) -> Result<(), ParseError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(format!("expected {t}, found {}", self.peek_desc())))
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected {kw}, found {}", self.peek_desc())))
        }
    }

    fn query(&mut self) -> Result<Query, ParseError> {
        while self.eat_kw("PREFIX") {
            self.prefix_decl()?;
        }
        if self.eat_kw("SELECT") {
            self.select_rest().map(Query::Select)
        } else if self.eat_kw("ASK") {
            self.expect(&Token::LBrace)?;
            let pattern = self.graph_pattern()?;
            self.expect(&Token::RBrace)?;
            Ok(Query::Ask(pattern))
        } else {
            Err(self.err(format!(
                "expected SELECT or ASK, found {}",
                self.peek_desc()
            )))
        }
    }

    fn prefix_decl(&mut self) -> Result<(), ParseError> {
        // The lexer produces a PName with empty local for `dbo:`.
        match self.bump() {
            Some(Token::PName(prefix, local)) if local.is_empty() => match self.bump() {
                Some(Token::Iri(iri)) => {
                    self.prefixes.insert(prefix, iri);
                    Ok(())
                }
                other => Err(self.err(format!("expected IRI after PREFIX, found {other:?}"))),
            },
            other => Err(self.err(format!("expected prefix name, found {other:?}"))),
        }
    }

    fn select_rest(&mut self) -> Result<SelectQuery, ParseError> {
        let distinct = self.eat_kw("DISTINCT");
        let projection = self.projection()?;
        // WHERE is optional in SPARQL.
        self.eat_kw("WHERE");
        self.expect(&Token::LBrace)?;
        let pattern = self.graph_pattern()?;
        self.expect(&Token::RBrace)?;

        let mut group_by = Vec::new();
        let mut order_by = Vec::new();
        let mut limit = None;
        let mut offset = None;
        loop {
            if self.eat_kw("GROUP") {
                self.expect_kw("BY")?;
                while let Some(Token::Var(_)) = self.peek() {
                    if let Some(Token::Var(v)) = self.bump() {
                        group_by.push(v);
                    }
                }
                if group_by.is_empty() {
                    return Err(self.err("GROUP BY requires at least one variable"));
                }
            } else if self.eat_kw("ORDER") {
                self.expect_kw("BY")?;
                loop {
                    if self.eat_kw("DESC") {
                        self.expect(&Token::LParen)?;
                        let expr = self.expr()?;
                        self.expect(&Token::RParen)?;
                        order_by.push(OrderKey {
                            expr,
                            descending: true,
                        });
                    } else if self.eat_kw("ASC") {
                        self.expect(&Token::LParen)?;
                        let expr = self.expr()?;
                        self.expect(&Token::RParen)?;
                        order_by.push(OrderKey {
                            expr,
                            descending: false,
                        });
                    } else if matches!(self.peek(), Some(Token::Var(_))) {
                        let Some(Token::Var(v)) = self.bump() else {
                            unreachable!()
                        };
                        order_by.push(OrderKey {
                            expr: Expr::Var(v),
                            descending: false,
                        });
                    } else {
                        break;
                    }
                }
                if order_by.is_empty() {
                    return Err(self.err("ORDER BY requires at least one key"));
                }
            } else if self.eat_kw("LIMIT") {
                limit = Some(self.number_usize()?);
            } else if self.eat_kw("OFFSET") {
                offset = Some(self.number_usize()?);
            } else {
                break;
            }
        }

        Ok(SelectQuery {
            distinct,
            projection,
            pattern,
            group_by,
            order_by,
            limit,
            offset,
        })
    }

    fn number_usize(&mut self) -> Result<usize, ParseError> {
        match self.bump() {
            Some(Token::Number(n)) => n
                .parse::<usize>()
                .map_err(|_| self.err(format!("expected non-negative integer, found {n}"))),
            other => Err(self.err(format!("expected number, found {other:?}"))),
        }
    }

    fn projection(&mut self) -> Result<Projection, ParseError> {
        if self.eat(&Token::Star) {
            return Ok(Projection::Star);
        }
        let mut items = Vec::new();
        loop {
            match self.peek() {
                Some(Token::Var(_)) => {
                    if let Some(Token::Var(v)) = self.bump() {
                        items.push(SelectItem::Var(v));
                    }
                }
                Some(Token::LParen) => {
                    // (AGG(...) AS ?alias)
                    self.bump();
                    let agg = self.aggregate()?;
                    self.expect_kw("AS")?;
                    let alias = match self.bump() {
                        Some(Token::Var(v)) => v,
                        other => {
                            return Err(
                                self.err(format!("expected variable after AS, found {other:?}"))
                            )
                        }
                    };
                    self.expect(&Token::RParen)?;
                    items.push(SelectItem::Agg { agg, alias });
                }
                Some(Token::Keyword(k))
                    if matches!(k.as_str(), "COUNT" | "SUM" | "MIN" | "MAX" | "AVG") =>
                {
                    // Bare aggregate without alias, as in the paper's
                    // `SELECT DISTINCT count (?uri)`.
                    let agg = self.aggregate()?;
                    self.agg_counter += 1;
                    let alias = format!("agg{}", self.agg_counter);
                    items.push(SelectItem::Agg { agg, alias });
                }
                _ => break,
            }
        }
        if items.is_empty() {
            return Err(self.err(format!("expected projection, found {}", self.peek_desc())));
        }
        Ok(Projection::Items(items))
    }

    fn aggregate(&mut self) -> Result<Aggregate, ParseError> {
        let kw = match self.bump() {
            Some(Token::Keyword(k)) => k,
            other => return Err(self.err(format!("expected aggregate, found {other:?}"))),
        };
        self.expect(&Token::LParen)?;
        let agg = match kw.as_str() {
            "COUNT" => {
                let distinct = self.eat_kw("DISTINCT");
                if self.eat(&Token::Star) {
                    Aggregate::Count {
                        distinct,
                        var: None,
                    }
                } else {
                    let v = self.var()?;
                    Aggregate::Count {
                        distinct,
                        var: Some(v),
                    }
                }
            }
            "SUM" => Aggregate::Sum(self.var()?),
            "MIN" => Aggregate::Min(self.var()?),
            "MAX" => Aggregate::Max(self.var()?),
            "AVG" => Aggregate::Avg(self.var()?),
            other => return Err(self.err(format!("unknown aggregate {other}"))),
        };
        self.expect(&Token::RParen)?;
        Ok(agg)
    }

    fn var(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Some(Token::Var(v)) => Ok(v),
            other => Err(self.err(format!("expected variable, found {other:?}"))),
        }
    }

    fn graph_pattern(&mut self) -> Result<GraphPattern, ParseError> {
        let mut gp = GraphPattern::default();
        loop {
            match self.peek() {
                None | Some(Token::RBrace) => break,
                Some(Token::Keyword(k)) if k == "FILTER" => {
                    self.bump();
                    self.expect(&Token::LParen)?;
                    let e = self.expr()?;
                    self.expect(&Token::RParen)?;
                    gp.filters.push(e);
                    // Optional '.' after a filter.
                    self.eat(&Token::Dot);
                }
                Some(Token::Keyword(k)) if k == "VALUES" => {
                    self.bump();
                    if gp.values.is_some() {
                        return Err(self.err("at most one VALUES block per pattern"));
                    }
                    gp.values = Some(self.inline_data()?);
                    self.eat(&Token::Dot);
                }
                _ => {
                    self.triple_block(&mut gp)?;
                }
            }
        }
        Ok(gp)
    }

    /// `?var { term* }`, after the `VALUES` keyword.
    fn inline_data(&mut self) -> Result<InlineData, ParseError> {
        let var = self.var()?;
        self.expect(&Token::LBrace)?;
        let mut terms = Vec::new();
        while !self.eat(&Token::RBrace) {
            match self.term_pattern()? {
                TermPattern::Term(t) => terms.push(t),
                TermPattern::Var(v) => {
                    return Err(self.err(format!("expected a term in VALUES, found ?{v}")))
                }
            }
        }
        Ok(InlineData {
            var,
            terms: terms.into(),
        })
    }

    fn triple_block(&mut self, gp: &mut GraphPattern) -> Result<(), ParseError> {
        let subject = self.term_pattern()?;
        loop {
            let predicate = self.predicate_pattern()?;
            loop {
                let object = self.term_pattern()?;
                gp.triples.push(TriplePattern::new(
                    subject.clone(),
                    predicate.clone(),
                    object,
                ));
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            if !self.eat(&Token::Semicolon) {
                break;
            }
            if matches!(self.peek(), Some(Token::Dot) | Some(Token::RBrace) | None) {
                break;
            }
        }
        // '.' between triple blocks is optional before '}'.
        self.eat(&Token::Dot);
        Ok(())
    }

    fn predicate_pattern(&mut self) -> Result<TermPattern, ParseError> {
        if self.eat(&Token::A) {
            return Ok(TermPattern::iri(vocab::rdf::TYPE));
        }
        let t = self.term_pattern()?;
        match &t {
            TermPattern::Var(_) => Ok(t),
            TermPattern::Term(Term::Iri(_)) => Ok(t),
            _ => Err(self.err("predicate must be an IRI or variable")),
        }
    }

    fn expand_pname(&self, prefix: &str, local: &str) -> Result<String, ParseError> {
        self.prefixes
            .get(prefix)
            .map(|ns| format!("{ns}{local}"))
            .ok_or_else(|| self.err(format!("unknown prefix {prefix:?}")))
    }

    fn term_pattern(&mut self) -> Result<TermPattern, ParseError> {
        match self.bump() {
            Some(Token::Var(v)) => Ok(TermPattern::Var(v)),
            Some(Token::Iri(iri)) => Ok(TermPattern::Term(Term::Iri(iri))),
            Some(Token::PName(p, l)) => {
                Ok(TermPattern::Term(Term::Iri(self.expand_pname(&p, &l)?)))
            }
            Some(Token::Str(s)) => Ok(TermPattern::Term(Term::Literal(self.literal_suffix(s)?))),
            Some(Token::Number(n)) => Ok(TermPattern::Term(Term::Literal(number_literal(&n)))),
            Some(Token::Keyword(k)) if k == "TRUE" || k == "FALSE" => Ok(TermPattern::Term(
                Term::Literal(Literal::typed(k.to_ascii_lowercase(), vocab::xsd::BOOLEAN)),
            )),
            other => Err(self.err(format!("expected term, found {other:?}"))),
        }
    }

    fn literal_suffix(&mut self, value: String) -> Result<Literal, ParseError> {
        if let Some(Token::LangTag(_)) = self.peek() {
            let Some(Token::LangTag(lang)) = self.bump() else {
                unreachable!()
            };
            return Ok(Literal::lang_tagged(value, lang));
        }
        if self.eat(&Token::DtMarker) {
            let dt = match self.bump() {
                Some(Token::Iri(iri)) => iri,
                Some(Token::PName(p, l)) => self.expand_pname(&p, &l)?,
                other => return Err(self.err(format!("expected datatype IRI, found {other:?}"))),
            };
            return Ok(Literal::typed(value, dt));
        }
        Ok(Literal::simple(value))
    }

    // ---- expressions (precedence: || < && < unary ! < comparison < primary) ----

    fn expr(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.and_expr()?;
        while self.eat(&Token::OrOr) {
            let right = self.and_expr()?;
            left = Expr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.cmp_expr()?;
        while self.eat(&Token::AndAnd) {
            let right = self.cmp_expr()?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn cmp_expr(&mut self) -> Result<Expr, ParseError> {
        let left = self.unary_expr()?;
        let op = match self.peek() {
            Some(Token::Eq) => Some(CmpOp::Eq),
            Some(Token::Ne) => Some(CmpOp::Ne),
            Some(Token::Lt) => Some(CmpOp::Lt),
            Some(Token::Le) => Some(CmpOp::Le),
            Some(Token::Gt) => Some(CmpOp::Gt),
            Some(Token::Ge) => Some(CmpOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let right = self.unary_expr()?;
            return Ok(Expr::Cmp(op, Box::new(left), Box::new(right)));
        }
        Ok(left)
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        if self.eat(&Token::Bang) {
            let inner = self.unary_expr()?;
            return Ok(Expr::Not(Box::new(inner)));
        }
        self.primary_expr()
    }

    fn primary_expr(&mut self) -> Result<Expr, ParseError> {
        match self.peek().cloned() {
            Some(Token::LParen) => {
                self.bump();
                let e = self.expr()?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Some(Token::Var(_)) => {
                let Some(Token::Var(v)) = self.bump() else {
                    unreachable!()
                };
                Ok(Expr::Var(v))
            }
            Some(Token::Iri(_)) => {
                let Some(Token::Iri(iri)) = self.bump() else {
                    unreachable!()
                };
                Ok(Expr::Const(Term::Iri(iri)))
            }
            Some(Token::PName(_, _)) => {
                let Some(Token::PName(p, l)) = self.bump() else {
                    unreachable!()
                };
                Ok(Expr::Const(Term::Iri(self.expand_pname(&p, &l)?)))
            }
            Some(Token::Str(_)) => {
                let Some(Token::Str(s)) = self.bump() else {
                    unreachable!()
                };
                Ok(Expr::Const(Term::Literal(self.literal_suffix(s)?)))
            }
            Some(Token::Number(_)) => {
                let Some(Token::Number(n)) = self.bump() else {
                    unreachable!()
                };
                Ok(Expr::Const(Term::Literal(number_literal(&n))))
            }
            Some(Token::Keyword(k)) => self.function_expr(&k),
            other => Err(self.err(format!("expected expression, found {other:?}"))),
        }
    }

    fn function_expr(&mut self, kw: &str) -> Result<Expr, ParseError> {
        match kw {
            "TRUE" | "FALSE" => {
                self.bump();
                Ok(Expr::Const(Term::Literal(Literal::typed(
                    kw.to_ascii_lowercase(),
                    vocab::xsd::BOOLEAN,
                ))))
            }
            "ISLITERAL" => self.unary_fn(Expr::IsLiteral),
            "ISIRI" | "ISURI" => self.unary_fn(Expr::IsIri),
            "LANG" => self.unary_fn(Expr::Lang),
            "STR" => self.unary_fn(Expr::Str),
            "STRLEN" => self.unary_fn(Expr::StrLen),
            "LCASE" => self.unary_fn(Expr::LCase),
            "UCASE" => self.unary_fn(Expr::UCase),
            "YEAR" => self.unary_fn(Expr::Year),
            "BOUND" => {
                self.bump();
                self.expect(&Token::LParen)?;
                let v = self.var()?;
                self.expect(&Token::RParen)?;
                Ok(Expr::Bound(v))
            }
            "CONTAINS" => self.binary_fn(Expr::Contains),
            "STRSTARTS" => self.binary_fn(Expr::StrStarts),
            "REGEX" => {
                self.bump();
                self.expect(&Token::LParen)?;
                let target = self.expr()?;
                self.expect(&Token::Comma)?;
                let pattern = match self.bump() {
                    Some(Token::Str(s)) => s,
                    other => {
                        return Err(
                            self.err(format!("REGEX pattern must be a string, found {other:?}"))
                        )
                    }
                };
                let mut case_insensitive = false;
                if self.eat(&Token::Comma) {
                    match self.bump() {
                        Some(Token::Str(flags)) => case_insensitive = flags.contains('i'),
                        other => {
                            return Err(
                                self.err(format!("REGEX flags must be a string, found {other:?}"))
                            )
                        }
                    }
                }
                self.expect(&Token::RParen)?;
                Ok(Expr::Regex(Box::new(target), pattern, case_insensitive))
            }
            other => Err(self.err(format!("unexpected keyword {other} in expression"))),
        }
    }

    fn unary_fn(&mut self, build: fn(Box<Expr>) -> Expr) -> Result<Expr, ParseError> {
        self.bump();
        self.expect(&Token::LParen)?;
        let e = self.expr()?;
        self.expect(&Token::RParen)?;
        Ok(build(Box::new(e)))
    }

    fn binary_fn(&mut self, build: fn(Box<Expr>, Box<Expr>) -> Expr) -> Result<Expr, ParseError> {
        self.bump();
        self.expect(&Token::LParen)?;
        let a = self.expr()?;
        self.expect(&Token::Comma)?;
        let b = self.expr()?;
        self.expect(&Token::RParen)?;
        Ok(build(Box::new(a), Box::new(b)))
    }
}

fn number_literal(lexical: &str) -> Literal {
    let dt = if lexical.contains(['e', 'E']) {
        vocab::xsd::DOUBLE
    } else if lexical.contains('.') {
        vocab::xsd::DECIMAL
    } else {
        vocab::xsd::INTEGER
    };
    Literal::typed(lexical.to_string(), dt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_paper_intro_query() {
        // The Ivy League query from the paper's introduction.
        let q = parse_select(
            r#"
PREFIX res: <http://dbpedia.org/resource/>
PREFIX dbo: <http://dbpedia.org/ontology/>
SELECT DISTINCT count (?uri) WHERE {
  ?uri rdf:type dbo:Scientist.
  ?uri dbo:almaMater ?university.
  ?university dbo:affiliation res:Ivy_League.
}
"#,
        )
        .unwrap();
        assert!(q.distinct);
        assert_eq!(q.pattern.triples.len(), 3);
        assert!(q.has_aggregates());
        let Projection::Items(items) = &q.projection else {
            panic!()
        };
        assert!(matches!(
            &items[0],
            SelectItem::Agg { agg: Aggregate::Count { distinct: false, var: Some(v) }, .. } if v == "uri"
        ));
    }

    #[test]
    fn parse_q1_frequency_query() {
        let q = parse_select(
            "SELECT DISTINCT ?p (COUNT(*) AS ?frequency) WHERE { ?s ?p ?o } GROUP BY ?p ORDER BY DESC(?frequency)",
        )
        .unwrap();
        assert_eq!(q.group_by, vec!["p"]);
        assert_eq!(q.order_by.len(), 1);
        assert!(q.order_by[0].descending);
        let Projection::Items(items) = &q.projection else {
            panic!()
        };
        assert_eq!(items.len(), 2);
        assert_eq!(items[1].name(), "frequency");
    }

    #[test]
    fn parse_q5_filter_query() {
        let q = parse_select(
            r#"SELECT DISTINCT ?o WHERE {
                 ?s <http://x/p> ?o.
                 FILTER (isliteral(?o) && lang(?o) = 'en' && strlen(str(?o)) < 80)
               } LIMIT 1"#,
        )
        .unwrap();
        assert_eq!(q.limit, Some(1));
        assert_eq!(q.pattern.filters.len(), 1);
        // ((isliteral && lang=en) && strlen<80) — left-associative.
        let Expr::And(left, _right) = &q.pattern.filters[0] else {
            panic!()
        };
        assert!(matches!(**left, Expr::And(_, _)));
    }

    #[test]
    fn parse_semicolon_and_comma_groups() {
        let q = parse_select(
            r#"SELECT * WHERE { ?s a dbo:Person ; dbo:name "Kennedy"@en , "JFK"@en . }"#,
        )
        .unwrap();
        assert_eq!(q.pattern.triples.len(), 3);
        assert_eq!(
            q.pattern.triples[0].predicate,
            TermPattern::iri(vocab::rdf::TYPE)
        );
        assert_eq!(q.pattern.triples[1].subject, q.pattern.triples[2].subject);
    }

    #[test]
    fn parse_ask() {
        let q = parse_query("ASK { ?s ?p ?o }").unwrap();
        assert!(matches!(q, Query::Ask(gp) if gp.triples.len() == 1));
    }

    #[test]
    fn parse_order_by_plain_var() {
        let q =
            parse_select("SELECT ?s WHERE { ?s ?p ?o } ORDER BY ?s LIMIT 10 OFFSET 20").unwrap();
        assert_eq!(q.order_by.len(), 1);
        assert!(!q.order_by[0].descending);
        assert_eq!(q.limit, Some(10));
        assert_eq!(q.offset, Some(20));
    }

    #[test]
    fn parse_numeric_filters() {
        let q = parse_select("SELECT ?f WHERE { ?f dbo:budget ?b . FILTER(?b >= 8.0E7) }").unwrap();
        let Expr::Cmp(CmpOp::Ge, _, right) = &q.pattern.filters[0] else {
            panic!()
        };
        let Expr::Const(Term::Literal(lit)) = &**right else {
            panic!()
        };
        assert_eq!(lit.as_f64(), Some(8.0e7));
    }

    #[test]
    fn parse_count_distinct_star() {
        let q = parse_select("SELECT (COUNT(DISTINCT ?x) AS ?n) WHERE { ?x ?p ?o }").unwrap();
        let Projection::Items(items) = &q.projection else {
            panic!()
        };
        assert!(matches!(
            &items[0],
            SelectItem::Agg {
                agg: Aggregate::Count {
                    distinct: true,
                    var: Some(_)
                },
                ..
            }
        ));
    }

    #[test]
    fn parse_errors() {
        assert!(parse_query("SELECT WHERE { ?s ?p ?o }").is_err());
        assert!(parse_query("SELECT ?s { ?s ?p }").is_err());
        assert!(parse_query("SELECT ?s WHERE { ?s nope:p ?o }").is_err());
        assert!(parse_query("FOO ?s").is_err());
        assert!(parse_query("SELECT ?s WHERE { ?s ?p ?o } LIMIT -3").is_err());
        assert!(parse_query("SELECT ?s WHERE { \"lit\" ?p ?o } extra").is_err());
    }

    #[test]
    fn custom_prefix_overrides_default() {
        let q = parse_select(
            "PREFIX dbo: <http://other.example/onto/> SELECT ?s WHERE { ?s a dbo:City }",
        )
        .unwrap();
        let TermPattern::Term(Term::Iri(iri)) = &q.pattern.triples[0].object else {
            panic!()
        };
        assert_eq!(iri, "http://other.example/onto/City");
    }

    #[test]
    fn regex_with_flags() {
        let q =
            parse_select(r#"SELECT ?s WHERE { ?s ?p ?o . FILTER(regex(str(?o), "ken", "i")) }"#)
                .unwrap();
        assert!(matches!(&q.pattern.filters[0], Expr::Regex(_, p, true) if p == "ken"));
    }

    #[test]
    fn filter_between_patterns() {
        let q = parse_select(
            "SELECT ?s WHERE { ?s a dbo:City . FILTER(bound(?s)) . ?s dbo:population ?pop }",
        )
        .unwrap();
        assert_eq!(q.pattern.triples.len(), 2);
        assert_eq!(q.pattern.filters.len(), 1);
    }

    #[test]
    fn values_block_round_trips_through_its_terms_own_display() {
        let terms = vec![
            Term::iri("http://dbpedia.org/resource/Ely"),
            Term::en("Kennedy Onassis"),
            Term::Literal(Literal::simple("plain \"quoted\"")),
            Term::Literal(Literal::integer(42)),
            Term::en("Kennedy Onassis"),
        ];
        let listed: Vec<String> = terms.iter().map(Term::to_string).collect();
        let text = format!(
            "SELECT DISTINCT ?v WHERE {{ ?s dbo:surname ?v . VALUES ?v {{ {} }} . FILTER(bound(?s)) }}",
            listed.join(" ")
        );
        let q = parse_select(&text).unwrap();
        let data = q.pattern.values.as_ref().expect("VALUES parsed");
        assert_eq!(data.var, "v");
        assert_eq!(data.terms.to_vec(), terms);
        assert_eq!(q.pattern.triples.len(), 1);
        assert_eq!(q.pattern.filters.len(), 1);
        assert_eq!(q.pattern.variables(), ["s", "v"]);
        // ASK takes the same body; prefixed names and keywords any case.
        let ask = parse_query("ASK { ?s a ?k values ?k { dbo:City dbo:Country } }").unwrap();
        let Query::Ask(gp) = ask else { panic!() };
        assert_eq!(gp.values.unwrap().terms.len(), 2);
        assert_eq!(
            parse_select("SELECT ?s WHERE { ?s ?p ?o }")
                .unwrap()
                .pattern
                .values,
            None
        );
    }

    #[test]
    fn values_block_errors() {
        for bad in [
            "SELECT ?s WHERE { ?s ?p ?v VALUES ?v { ?x } }",
            "SELECT ?s WHERE { ?s ?p ?v VALUES { <http://x/a> } }",
            "SELECT ?s WHERE { ?s ?p ?v VALUES ?v { <http://x/a> }",
            "SELECT ?s WHERE { ?s ?p ?v VALUES ?v { <http://x/a> } VALUES ?v { <http://x/b> } }",
            "SELECT ?s WHERE { ?s ?p ?v VALUES (?v ?s) { (<http://x/a> <http://x/b>) } }",
        ] {
            assert!(parse_query(bad).is_err(), "{bad}");
        }
    }
}
